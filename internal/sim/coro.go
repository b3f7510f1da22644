//go:build go1.23

package sim

import "iter"

// start makes fn p's body, run as an iter.Pull coroutine that has not
// started yet: the engine's first p.next() enters fn, each p.yield in
// Sleep, Block or Repeat suspends it, and its end — a return, or a panic
// turned into p.panicked — returns from the sequence function, so next
// reports false and the coroutine's goroutine exits. p.stop is how
// Engine.Close ends a body that has not ended: it makes the suspended
// yield return false (or, for a body never entered, skips it), Sleep,
// Block and Repeat turn that into a closedPanic, and the recover below
// swallows it once the body's deferred calls have run. The go1.23
// constraint above is what lets this file import iter while go.mod
// declares go 1.22 (see the package comment).
func (p *Proc) start(fn func(*Proc)) {
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			if r := recover(); r != nil {
				p.eng.stepping = false
				switch r := r.(type) {
				case closedPanic: // unwound by Engine.Close
				case stepPanic:
					p.panicked = r.err
				default:
					p.panicked = panicError(p, r)
				}
			}
		}()
		fn(p)
	})
}
