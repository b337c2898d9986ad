package core

import "repro/internal/tables"

// init registers the paper's own tables in the capability registry
// (Table 1 rows for the xyGrow family and folklore).
func init() {
	tables.Register(tables.Capabilities{
		Name: "folklore", Plot: "open circle", StdInterface: "handles",
		Growing: "no", AtomicUpdates: "yes", Deletion: true,
		GeneralTypes: false, Reference: "§4 bounded lock-free linear probing",
	}, func(capacity uint64) tables.Interface { return NewFolkloreExact(2 * capacity) })

	for _, s := range []Strategy{UA, US, PA, PS} {
		s := s
		tables.Register(tables.Capabilities{
			Name: s.String(), Plot: "filled circle", StdInterface: "handles",
			Growing: "yes", AtomicUpdates: atomicCaps(s), Deletion: true,
			GeneralTypes: false, Reference: "§5/§7 growing folklore (" + s.String() + ")",
		}, func(capacity uint64) tables.Interface { return NewGrow(s, capacity) })
	}
}

func atomicCaps(s Strategy) string {
	if s.synchronized() {
		return "yes (native fetch-and-add)"
	}
	return "yes (CAS loop)"
}
