package sweep

import (
	"flag"
	"fmt"
	"strconv"
	"strings"
)

// Flags binds the sweep grid flags: the workload knobs, the comma lists
// of batch sizes and capacities, one comma list per policy registry
// dimension (-evict, -prefetch, -batch-sizing, -arch), and
// -list-policies. The policy defaults reproduce the historical sweeps
// (lru, on/off prefetch, fixed sizing, host-driven architecture).
type Flags struct {
	Workload string
	MB       uint64
	N        int
	Seed     uint64
	Batches  string
	Caps     string

	Eviction     string
	Prefetch     string
	BatchSizing  string
	Architecture string
	// List asks for the policy listing (uvm.WritePolicies) instead of a
	// sweep.
	List bool
}

// RegisterFlags registers the sweep grid flags on fs and returns the
// parsed destination.
func RegisterFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Workload, "workload", "gauss-seidel", "workload to sweep")
	fs.Uint64Var(&f.MB, "mb", 64, "footprint knob in MiB")
	fs.IntVar(&f.N, "n", 3072, "problem dimension for gemm/gauss-seidel/spmv")
	fs.Uint64Var(&f.Seed, "seed", 11, "workload seed")
	fs.StringVar(&f.Batches, "batches", "256", "comma-separated batch size limits")
	fs.StringVar(&f.Caps, "caps", "32,64,256", "comma-separated GPU capacities in MiB")
	fs.StringVar(&f.Eviction, "evict", "lru", "eviction policies to sweep, by registry name (comma-separated)")
	fs.StringVar(&f.Prefetch, "prefetch", "on,off", "prefetch policies to sweep, by registry name (on/off accepted as aliases of tree/off)")
	fs.StringVar(&f.BatchSizing, "batch-sizing", "fixed", "batch-sizing policies to sweep, by registry name (comma-separated)")
	fs.StringVar(&f.Architecture, "arch", "host-driven", "UVM architectures to sweep, by registry name (comma-separated)")
	fs.BoolVar(&f.List, "list-policies", false, "list registered driver policies and exit")
	return f
}

// Spec parses the comma lists into a sweep spec. Names are checked
// later, by Spec.Points.
func (f *Flags) Spec() (Spec, error) {
	batches, err := parseIntList(f.Batches)
	if err != nil {
		return Spec{}, err
	}
	caps, err := parseIntList(f.Caps)
	if err != nil {
		return Spec{}, err
	}
	return Spec{
		Workload: f.Workload,
		MB:       f.MB,
		N:        f.N,
		Seed:     f.Seed,
		Batches:  batches,
		CapsMB:   caps,
		Evict:    strings.Split(f.Eviction, ","),
		Prefetch: strings.Split(f.Prefetch, ","),
		Sizing:   strings.Split(f.BatchSizing, ","),
		Arch:     strings.Split(f.Architecture, ","),
	}, nil
}

func parseIntList(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad list element %q", f)
		}
		out = append(out, v)
	}
	return out, nil
}
