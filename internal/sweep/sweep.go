// Package sweep is the one definition of a driver-policy sweep: the spec
// (one workload crossed with lists of driver knobs), its expansion into
// grid points, each point's content digest and simulator configuration,
// and the runner that simulates one point. uvmsweep prints the points as
// CSV; the sweep daemon (internal/sweepd) serves them as JSON.
package sweep

import (
	"cmp"
	"fmt"
	"strings"

	"guvm"
	"guvm/internal/digest"
	"guvm/internal/uvm"
	"guvm/internal/workloads"
)

// Spec is a sweep request: one workload crossed with lists of driver
// knobs. Empty lists fall back to single-point defaults, so the minimal
// useful spec is just {"workload":"stream"}.
type Spec struct {
	Workload string `json:"workload"`
	MB       uint64 `json:"mb,omitempty"`
	N        int    `json:"n,omitempty"`
	Seed     uint64 `json:"seed,omitempty"`

	Batches  []int    `json:"batches,omitempty"`
	CapsMB   []int    `json:"caps_mb,omitempty"`
	Evict    []string `json:"evict,omitempty"`
	Prefetch []string `json:"prefetch,omitempty"`
	Sizing   []string `json:"batch_sizing,omitempty"`
	Arch     []string `json:"arch,omitempty"`
}

// withDefaults fills every field the spec leaves empty. A policy list
// the spec omits takes the caller's default for that dimension, else the
// historical one (lru, tree, fixed, host-driven).
func (s Spec) withDefaults(d uvm.PolicySelection) Spec {
	s.MB = cmp.Or(s.MB, 64)
	s.N = cmp.Or(s.N, 3072)
	s.Seed = cmp.Or(s.Seed, 11)
	if len(s.Batches) == 0 {
		s.Batches = []int{256}
	}
	if len(s.CapsMB) == 0 {
		s.CapsMB = []int{64}
	}
	if len(s.Evict) == 0 {
		s.Evict = []string{cmp.Or(d.Eviction, "lru")}
	}
	if len(s.Prefetch) == 0 {
		s.Prefetch = []string{cmp.Or(d.Prefetch, "tree")}
	}
	if len(s.Sizing) == 0 {
		s.Sizing = []string{cmp.Or(d.BatchSizing, "fixed")}
	}
	if len(s.Arch) == 0 {
		s.Arch = []string{cmp.Or(d.Architecture, "host-driven")}
	}
	return s
}

// Points validates the spec and expands its grid in deterministic order
// (batches x caps x prefetch x evict x sizing x arch, the architecture
// innermost). defaults supplies the policies for dimensions the spec
// leaves empty. Every policy name is checked against the registry and
// the workload against the catalog before any simulation runs, so a bad
// spec is rejected up front, never mid-sweep.
func (s Spec) Points(defaults uvm.PolicySelection) ([]Point, error) {
	s = s.withDefaults(defaults)
	if _, err := workloads.ByName(s.Workload, s.MB, s.N, s.Seed, 1); err != nil {
		return nil, err
	}
	for _, bs := range s.Batches {
		if bs <= 0 {
			return nil, fmt.Errorf("sweep: batch size %d out of range", bs)
		}
	}
	for _, c := range s.CapsMB {
		if c <= 0 {
			return nil, fmt.Errorf("sweep: capacity %d MiB out of range", c)
		}
	}
	var pts []Point
	for _, bs := range s.Batches {
		for _, capMB := range s.CapsMB {
			for _, pf := range s.Prefetch {
				pfName := normalizePrefetch(pf)
				for _, ev := range s.Evict {
					for _, sz := range s.Sizing {
						for _, ar := range s.Arch {
							sel := uvm.PolicySelection{
								Eviction:     strings.TrimSpace(ev),
								Prefetch:     pfName,
								BatchSizing:  strings.TrimSpace(sz),
								Architecture: strings.TrimSpace(ar),
							}
							if err := sel.Validate(); err != nil {
								return nil, err
							}
							pts = append(pts, Point{
								Workload:  s.Workload,
								MB:        s.MB,
								N:         s.N,
								Seed:      s.Seed,
								BatchSize: bs,
								CapMB:     capMB,
								Evict:     sel.Eviction,
								Prefetch:  sel.Prefetch,
								Sizing:    sel.BatchSizing,
								Arch:      sel.Architecture,
							})
						}
					}
				}
			}
		}
	}
	return pts, nil
}

// normalizePrefetch maps the legacy prefetch aliases a sweep accepts onto
// registry names: "on" means "tree", "" means "off".
func normalizePrefetch(name string) string {
	name = strings.TrimSpace(name)
	switch name {
	case "on":
		return "tree"
	case "":
		return "off"
	}
	return name
}

// Point is one fully resolved grid point, the unit of caching. Two specs
// that expand to the same point share one digest and therefore one
// cached result.
type Point struct {
	Workload  string `json:"workload"`
	MB        uint64 `json:"mb"`
	N         int    `json:"n"`
	Seed      uint64 `json:"seed"`
	BatchSize int    `json:"batch_size"`
	CapMB     int    `json:"cap_mb"`
	Evict     string `json:"evict"`
	Prefetch  string `json:"prefetch"`
	Sizing    string `json:"batch_sizing"`
	Arch      string `json:"arch"`
}

// digestVersion is folded into every point digest. Bump it whenever the
// simulation or the artifact schema changes meaning, so stale cached
// results from an older binary are never served as current.
// v2: Point gained the architecture dimension.
const digestVersion = 2

// Digest is the content address of this point: FNV-1a over the version
// tag and every field, in declaration order.
func (p Point) Digest() uint64 {
	return digest.New().
		Int(digestVersion).
		String(p.Workload).
		Uint64(p.MB).
		Int(p.N).
		Uint64(p.Seed).
		Int(p.BatchSize).
		Int(p.CapMB).
		String(p.Evict).
		String(p.Prefetch).
		String(p.Sizing).
		String(p.Arch).
		Sum()
}

// SystemConfig is the simulator configuration of this point: the default
// profile with the point's batch size, capacity and named policies.
func (p Point) SystemConfig() guvm.SystemConfig {
	cfg := guvm.DefaultConfig()
	cfg.Driver.BatchSize = p.BatchSize
	cfg.Driver.GPUMemBytes = uint64(p.CapMB) << 20
	cfg.Policies = uvm.PolicySelection{
		Eviction:     p.Evict,
		Prefetch:     p.Prefetch,
		BatchSizing:  p.Sizing,
		Architecture: p.Arch,
	}
	return cfg
}

// Result is what one simulated point reports. The JSON tags are the
// sweep daemon's row fields.
type Result struct {
	KernelMS        float64 `json:"kernel_ms"`
	BatchMS         float64 `json:"batch_ms"`
	Batches         int     `json:"batches"`
	Faults          int     `json:"faults"`
	Evictions       int     `json:"evictions"`
	MigratedMB      float64 `json:"migrated_mb"`
	PrefetchedPages int     `json:"prefetched_pages"`
}

// Run simulates one point to completion. With audit, the invariant
// auditor checks every batch (a violation fails the run) and Run also
// returns the simulator's final state digest, the bit-identity witness
// of the run; without it no auditor is attached and the digest is 0.
func Run(p Point, audit bool) (Result, uint64, error) {
	mk, err := workloads.ByName(p.Workload, p.MB, p.N, p.Seed, 1)
	if err != nil {
		return Result{}, 0, err
	}
	cfg := p.SystemConfig()
	cfg.Audit.Enabled = audit
	s, err := guvm.NewSimulator(cfg)
	if err != nil {
		return Result{}, 0, err
	}
	res, err := s.Run(mk())
	if err != nil {
		return Result{}, 0, fmt.Errorf("%s bs=%d cap=%d: %w", p.Workload, p.BatchSize, p.CapMB, err)
	}
	r := Result{
		KernelMS:        res.KernelTime.Millis(),
		BatchMS:         res.BatchTime().Millis(),
		Batches:         len(res.Batches),
		Faults:          res.DriverStats.TotalFaults,
		Evictions:       res.DriverStats.Evictions,
		MigratedMB:      float64(res.BytesMigrated()) / (1 << 20),
		PrefetchedPages: res.DriverStats.PrefetchedPages,
	}
	var state uint64
	if res.Audit != nil {
		state = res.Audit.FinalDigest
	}
	return r, state, nil
}

// CSVHeader is the header line of uvmsweep's CSV, naming CSVRow's columns.
const CSVHeader = "workload,batch_size,cap_mb,prefetch,evict,batch_sizing,arch,kernel_ms,batch_ms,batches,faults,evictions,migrated_mb,prefetched_pages"

// CSVRow formats one point and its result as a CSV line (no newline).
func CSVRow(p Point, r Result) string {
	return fmt.Sprintf("%s,%d,%d,%s,%s,%s,%s,%.3f,%.3f,%d,%d,%d,%.1f,%d",
		p.Workload, p.BatchSize, p.CapMB, p.Prefetch, p.Evict, p.Sizing, p.Arch,
		r.KernelMS, r.BatchMS, r.Batches, r.Faults, r.Evictions, r.MigratedMB, r.PrefetchedPages)
}
