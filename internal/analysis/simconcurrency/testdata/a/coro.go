//go:build go1.23

package a

import "iter"

func count(yield func(int) bool) {
	for i := 0; yield(i); i++ {
	}
}

func pairs(yield func(int, int) bool) {
	for i := 0; yield(i, i*i); i++ {
	}
}

func coroutines() {
	next, stop := iter.Pull(count) // want `use of iter\.Pull in simulated code`
	defer stop()
	next()
	next2, stop2 := iter.Pull2(pairs) // want `use of iter\.Pull2 in simulated code`
	defer stop2()
	next2()
}

// sequences are plain functions: declaring and ranging over them is fine.
func sequences() int {
	var seq iter.Seq[int] = count
	total := 0
	seq(func(v int) bool {
		total += v
		return v < 3
	})
	return total
}
