// Package a exercises the ipldiscipline analyzer: save/restore pairing of
// interrupt priority levels, handoff semantics, and the
// never-block-while-raised rule.
package a

import (
	"lint.test/machine"
	"lint.test/sim"
)

func work() {}

// --- discarded results ---------------------------------------------------

func discard(ex *machine.Exec) {
	ex.RaiseIPL(machine.IPLHigh) // want `result of RaiseIPL is discarded`
	_ = ex.DisableAll()          // want `result of DisableAll is discarded`
}

// --- correct pairings ----------------------------------------------------

func paired(ex *machine.Exec) {
	prev := ex.RaiseIPL(machine.IPLDevice)
	work()
	ex.RestoreIPL(prev)
}

func deferredRestore(ex *machine.Exec) {
	s := ex.DisableAll()
	defer ex.RestoreIPL(s)
	work()
}

func deferredClosureRestore(ex *machine.Exec) {
	s := ex.DisableAll()
	defer func() { ex.RestoreIPL(s) }()
	work()
}

func lockPaired(ex *machine.Exec, l *machine.SpinLock) {
	prev := l.Lock(ex)
	work()
	l.Unlock(ex, prev)
}

// --- leaks ---------------------------------------------------------------

func earlyReturnLeak(ex *machine.Exec, c bool) {
	prev := ex.RaiseIPL(machine.IPLHigh)
	if c {
		return // want `return leaks the raised IPL`
	}
	ex.RestoreIPL(prev)
}

func oneBranchRestore(ex *machine.Exec, c bool) {
	prev := ex.RaiseIPL(machine.IPLHigh) // want `not restored on all paths`
	if c {
		ex.RestoreIPL(prev)
	}
}

func lockLeak(ex *machine.Exec, l *machine.SpinLock, c bool) {
	prev := l.Lock(ex) // want `saved IPL from SpinLock\.Lock is not restored on all paths`
	if c {
		l.Unlock(ex, prev)
	}
}

func switchMissingDefault(ex *machine.Exec, n int) {
	prev := ex.RaiseIPL(machine.IPLHigh) // want `not restored on all paths`
	switch n {
	case 0:
		ex.RestoreIPL(prev)
	case 1:
		ex.RestoreIPL(prev)
	}
}

// --- loops ---------------------------------------------------------------

func raiseInsideLoopLeak(ex *machine.Exec, n int) {
	var prev machine.IPL
	for i := 0; i < n; i++ {
		prev = ex.RaiseIPL(machine.IPLHigh) // want `overwrites a still-unrestored saved IPL`
		work()
	}
	ex.RestoreIPL(prev)
}

func raiseInsideLoopPaired(ex *machine.Exec, n int) {
	for i := 0; i < n; i++ {
		prev := ex.RaiseIPL(machine.IPLHigh)
		work()
		ex.RestoreIPL(prev)
	}
}

// activate is the pmap.Activate dance: the saved level is consumed on
// every path through the retry loop.
func activate(ex *machine.Exec, l *machine.SpinLock) {
	for {
		s := ex.DisableAll()
		if l.TryLock(ex) {
			l.Unlock(ex, s)
			return
		}
		ex.RestoreIPL(s)
	}
}

// --- handoff: the restore obligation transfers with the value ------------

func handoffVar(ex *machine.Exec) machine.IPL {
	prev := ex.DisableAll()
	return prev
}

type op struct{ prevIPL machine.IPL }

func handoffStruct(ex *machine.Exec) *op {
	prev := ex.DisableAll()
	return &op{prevIPL: prev}
}

// A raise result assigned straight to a field or element is stored: the
// struct carries the obligation, as when a loop keeps the IPL its lock
// acquisition saved.
func handoffField(ex *machine.Exec, o *op) {
	o.prevIPL = ex.RaiseIPL(machine.IPLHigh)
}

func handoffElement(ex *machine.Exec, l *machine.SpinLock, saved []machine.IPL) {
	saved[0] = l.Lock(ex)
}

func handoffCallee(ex *machine.Exec) {
	prev := ex.DisableAll()
	finish(ex, prev)
}

func finish(ex *machine.Exec, prev machine.IPL) {
	ex.RestoreIPL(prev)
}

// --- blocking while raised -----------------------------------------------

func blockSelf(p *sim.Proc) { p.Block() }

func blockDirectWhileRaised(ex *machine.Exec, p *sim.Proc) {
	prev := ex.RaiseIPL(machine.IPLHigh)
	p.Block() // want `call to Block may block while the IPL is raised`
	ex.RestoreIPL(prev)
}

func blockTransitivelyWhileRaised(ex *machine.Exec, p *sim.Proc) {
	prev := ex.DisableAll()
	blockSelf(p) // want `call to blockSelf may block while the IPL is raised`
	ex.RestoreIPL(prev)
}

func blockAfterRestore(ex *machine.Exec, p *sim.Proc) {
	prev := ex.DisableAll()
	ex.RestoreIPL(prev)
	p.Block() // ok: the level is back down
}

func spinWhileRaised(ex *machine.Exec) {
	prev := ex.DisableAll()
	ex.SpinWhile(func() bool { return false }) // ok: busy-wait keeps running
	ex.RestoreIPL(prev)
}
