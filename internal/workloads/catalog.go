package workloads

import (
	"fmt"

	"guvm/internal/hostos"
)

// CatalogNames lists the workloads constructible by name through ByName,
// in a stable order (for `uvmsim -list`, error messages and API listings).
func CatalogNames() []string {
	return []string{
		"vecadd", "vecadd-prefetch", "vecadd-coalesced", "regular", "random", "stream",
		"sgemm", "dgemm", "fft", "gauss-seidel", "hpgmg", "spmv",
	}
}

// ByName builds the named workload from the shared knobs: mb is the
// footprint in MiB (per array for stream/regular/random/fft, the fine
// grid for hpgmg), n the problem dimension (sgemm/dgemm/gauss-seidel/
// spmv), seed the workload RNG seed (random/spmv) and hostThreads the CPU
// threads of hpgmg's host phases (sweeps pass 1). The §3 microbenchmarks
// (vecadd*) take no knobs. ByName is the only place a name becomes a
// workload: uvmsim, uvmsweep and the sweepd service all resolve names
// here, which keeps their config digests comparable. The returned
// constructor is reusable — each call builds a fresh workload with fresh
// seeded RNG state, so one grid point never perturbs another.
// hostThreads outside [1, hostos.MaxThreads] is a *hostos.ThreadCountError.
func ByName(name string, mb uint64, n int, seed uint64, hostThreads int) (func() Workload, error) {
	if err := hostos.CheckThreads(hostThreads); err != nil {
		return nil, fmt.Errorf("workloads: %s: %w", name, err)
	}
	bytes := mb << 20
	switch name {
	case "vecadd":
		return func() Workload { return NewVecAddPaper() }, nil
	case "vecadd-prefetch":
		return func() Workload { return NewVecAddPrefetch() }, nil
	case "vecadd-coalesced":
		return func() Workload { return NewVecAddCoalesced() }, nil
	case "regular":
		return func() Workload { return NewRegular(bytes, 160) }, nil
	case "random":
		return func() Workload { return NewRandom(bytes, 160, 300, seed) }, nil
	case "stream":
		return func() Workload { return NewStream(bytes, 24) }, nil
	case "sgemm":
		return func() Workload { return NewSGEMM(n) }, nil
	case "dgemm":
		return func() Workload { return NewDGEMM(n) }, nil
	case "fft":
		return func() Workload { return NewFFT(int(bytes/8), 10) }, nil
	case "gauss-seidel":
		return func() Workload { return NewGaussSeidel(n, 3) }, nil
	case "hpgmg":
		return func() Workload { return NewHPGMG(bytes, hostThreads) }, nil
	case "spmv":
		return func() Workload { return NewSpMV(n*n/64, 16, seed) }, nil
	}
	return nil, fmt.Errorf("workloads: unknown workload %q (valid: %v)", name, CatalogNames())
}
