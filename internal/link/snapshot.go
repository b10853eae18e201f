package link

import (
	"fmt"

	"gathernoc/internal/fault"
	"gathernoc/internal/flit"
	"gathernoc/internal/stats"
)

// InflightFlit is one serialized entry of the forward staging ring.
type InflightFlit struct {
	Flit flit.State
	VC   int
	Due  int64
}

// InflightCredit is one serialized entry of the credit staging ring.
type InflightCredit struct {
	VC  int
	Due int64
}

// State is the serialized mutable state of one link: both staging rings
// in send order (due cycles are absolute, matching the snapshot's engine
// cycle), the owed-credit ledger of the fault path, the carried counters,
// and the fault decision state when injection is enabled.
type State struct {
	Flits          []InflightFlit
	Credits        []InflightCredit
	OwedCredits    []int
	FlitsCarried   stats.Counter
	CreditsCarried stats.Counter
	Faults         *fault.LinkSnapshot
}

// CaptureState serializes the link's mutable state.
func (l *Link) CaptureState() State {
	s := State{
		FlitsCarried:   l.FlitsCarried,
		CreditsCarried: l.CreditsCarried,
	}
	for i := 0; i < l.flits.Len(); i++ {
		in := l.flits.At(i)
		s.Flits = append(s.Flits, InflightFlit{Flit: flit.CaptureFlit(in.f), VC: in.vc, Due: in.due})
	}
	for i := 0; i < l.credits.Len(); i++ {
		c := l.credits.At(i)
		s.Credits = append(s.Credits, InflightCredit{VC: c.vc, Due: c.due})
	}
	if l.owedAny {
		s.OwedCredits = append([]int(nil), l.owedCredits...)
	}
	if l.faults != nil {
		fs := l.faults.Capture()
		s.Faults = &fs
	}
	return s
}

// RestoreState replaces the link's mutable state with the captured one,
// materializing in-flight flits through pool (the restored network's
// acquire/release accounting must balance). ep bounds the flits'
// endpoints and sizes rebuilt multicast destination sets; vcs is the
// channel's VC count. A snapshot naming a VC outside [0, vcs) or
// carrying a flit that fails flit.State.Check is rejected before
// anything is restored.
func (l *Link) RestoreState(s State, pool *flit.Pool, ep flit.Endpoints, vcs int) error {
	for i := range s.Flits {
		in := &s.Flits[i]
		if in.VC < 0 || in.VC >= vcs {
			return fmt.Errorf("link %s: snapshot flit on vc%d out of range (VCs=%d)", l.name, in.VC, vcs)
		}
		if err := in.Flit.Check(ep); err != nil {
			return fmt.Errorf("link %s: snapshot %w", l.name, err)
		}
	}
	for _, c := range s.Credits {
		if c.VC < 0 || c.VC >= vcs {
			return fmt.Errorf("link %s: snapshot credit on vc%d out of range (VCs=%d)", l.name, c.VC, vcs)
		}
	}
	if len(s.OwedCredits) > vcs {
		return fmt.Errorf("link %s: snapshot owes credits on %d VCs (VCs=%d)", l.name, len(s.OwedCredits), vcs)
	}
	l.FlitsCarried = s.FlitsCarried
	l.CreditsCarried = s.CreditsCarried
	l.flits.Reset()
	for _, in := range s.Flits {
		l.flits.PushBack(inflightFlit{f: in.Flit.Materialize(pool, ep), vc: in.VC, due: in.Due})
	}
	l.credits.Reset()
	for _, c := range s.Credits {
		l.credits.PushBack(inflightCredit{vc: c.VC, due: c.Due})
	}
	l.owedCredits = l.owedCredits[:0]
	l.owedAny = false
	for vc, n := range s.OwedCredits {
		if n > 0 {
			l.oweCredit(vc)
			l.owedCredits[vc] = n
		}
	}
	if s.Faults != nil && l.faults != nil {
		l.faults.Restore(*s.Faults)
	}
	return nil
}
