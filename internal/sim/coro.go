//go:build go1.23

package sim

import "iter"

// start makes fn p's body, run as an iter.Pull coroutine that has not
// started yet: the engine's first p.next() enters fn, each p.yield in
// Sleep or Block suspends it, and its end — a return, or a panic turned
// into p.panicked — returns from the sequence function, so next reports
// false and the coroutine's goroutine exits instead of staying parked.
// The go1.23 constraint above is what lets this file import iter while
// go.mod declares go 1.22 (see the package comment).
func (p *Proc) start(fn func(*Proc)) {
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			if r := recover(); r != nil {
				p.eng.stepping = false
				if sp, ok := r.(stepPanic); ok {
					p.panicked = sp.err
				} else {
					p.panicked = panicError(p, r)
				}
			}
		}()
		fn(p)
	})
}
