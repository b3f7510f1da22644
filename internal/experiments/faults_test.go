package experiments

import "testing"

func TestFaultCampaignSmoke(t *testing.T) {
	r, err := FaultCampaign(&Args{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.Render())
	if f := r.Failures(); f != 0 {
		t.Fatalf("%d campaign runs failed", f)
	}
}
