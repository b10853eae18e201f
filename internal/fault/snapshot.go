package fault

import "sort"

// LinkSnapshot is the serialized mutable state of one LinkState: the
// packet-atomic drop set plus the diagnostic counters. The decision
// inputs (salt, thresholds, outage windows) are pure functions of the
// configuration and are rebuilt by construction, not serialized.
type LinkSnapshot struct {
	Doomed   []uint64
	Drops    uint64
	Corrupts uint64
}

// Capture serializes the link's mutable fault state. The doomed set is
// emitted sorted so identical states serialize identically.
func (ls *LinkState) Capture() LinkSnapshot {
	s := LinkSnapshot{Drops: ls.Drops, Corrupts: ls.Corrupts}
	for pid := range ls.doomed {
		s.Doomed = append(s.Doomed, pid)
	}
	sort.Slice(s.Doomed, func(i, j int) bool { return s.Doomed[i] < s.Doomed[j] })
	return s
}

// Restore replaces the link's mutable fault state with the captured one.
func (ls *LinkState) Restore(s LinkSnapshot) {
	ls.Drops = s.Drops
	ls.Corrupts = s.Corrupts
	clear(ls.doomed)
	if len(s.Doomed) > 0 && ls.doomed == nil {
		ls.doomed = make(map[uint64]struct{}, len(s.Doomed))
	}
	for _, pid := range s.Doomed {
		ls.doomed[pid] = struct{}{}
	}
}
