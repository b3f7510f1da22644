package fault

import "testing"

// BenchmarkBusJitterFired measures one fired bus-jitter decision, the
// injector's hottest path (nearly every event a churn world fires), with
// the ring alone and with the full log KeepEvents turns on.
func BenchmarkBusJitterFired(b *testing.B) {
	for _, keep := range []bool{false, true} {
		name := "tail"
		if keep {
			name = "keep"
		}
		b.Run(name, func(b *testing.B) {
			in := New(Config{Seed: 1, BusJitter: 1})
			if keep {
				in.KeepEvents()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				in.BusJitter(i & 15)
			}
		})
	}
}
