package uvm

// flags.go — the shared CLI policy flag block. The single-choice CLIs
// (uvmsim, faultviz, paperfigs, and sweepd for its defaults) select
// driver policies along the registry dimensions; this file is the single
// definition of those flags, mirroring obs.RegisterFlags for the
// observability block. The sweep grid's list flags live with the grid,
// in internal/sweep.

import (
	"flag"
	"fmt"
	"io"
	"sort"
)

// PolicyFlags binds the single-choice policy selection flags (-evict,
// -prefetch-policy, -batch-sizing, -arch) plus -list-policies. Empty
// selections defer to the config defaults, so a command line that never
// names a policy behaves exactly as before the flags existed.
type PolicyFlags struct {
	Eviction     string
	Prefetch     string
	BatchSizing  string
	Architecture string
	List         bool
}

// RegisterPolicyFlags registers the shared policy flag block on fs and
// returns the parsed destination.
func RegisterPolicyFlags(fs *flag.FlagSet) *PolicyFlags {
	pf := &PolicyFlags{}
	fs.StringVar(&pf.Eviction, "evict", "", "eviction policy by registry name (see -list-policies)")
	fs.StringVar(&pf.Prefetch, "prefetch-policy", "", "prefetch policy by registry name (see -list-policies)")
	fs.StringVar(&pf.BatchSizing, "batch-sizing", "", "batch-sizing policy by registry name (see -list-policies)")
	fs.StringVar(&pf.Architecture, "arch", "", "UVM architecture by registry name (see -list-policies)")
	fs.BoolVar(&pf.List, "list-policies", false, "list registered driver policies and exit")
	return pf
}

// Selection converts the parsed flags into a PolicySelection.
func (pf *PolicyFlags) Selection() PolicySelection {
	return PolicySelection{
		Eviction:     pf.Eviction,
		Prefetch:     pf.Prefetch,
		BatchSizing:  pf.BatchSizing,
		Architecture: pf.Architecture,
	}
}

// HandleList writes the policy listing to w and reports whether
// -list-policies was given (the caller exits afterwards).
func (pf *PolicyFlags) HandleList(w io.Writer) bool {
	if !pf.List {
		return false
	}
	WritePolicies(w)
	return true
}

// WritePolicies writes every registered policy grouped by kind. Kinds
// keep registration order (eviction first — tooling greps for it); names
// within a kind are sorted, so the listing is deterministic however
// future registrations shuffle init order.
func WritePolicies(w io.Writer) {
	var kinds []PolicyKind
	byKind := map[PolicyKind][]PolicyInfo{}
	for _, p := range Policies() {
		if _, ok := byKind[p.Kind]; !ok {
			kinds = append(kinds, p.Kind)
		}
		byKind[p.Kind] = append(byKind[p.Kind], p)
	}
	for i, k := range kinds {
		if i > 0 {
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "%s:\n", k)
		ps := byKind[k]
		sort.Slice(ps, func(a, b int) bool { return ps[a].Name < ps[b].Name })
		for _, p := range ps {
			fmt.Fprintf(w, "  %-14s %s\n", p.Name, p.Description)
		}
	}
}
