package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"guvm/internal/sim"
	"guvm/internal/trace"
)

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	tr.Add(LanePhase, "c", "n", 0, 1, 0)
	tr.AddInstant("e", 0)
	tr.AddBatch(&trace.BatchRecord{End: 10})
	tr.AddKernel(0, 0, 5)
	if tr.Spans() != nil || tr.Instants() != nil {
		t.Fatal("nil tracer recorded something")
	}

	var reg *Registry
	reg.Counter("c", "h").Inc()
	reg.Gauge("g", "h").Set(1)
	reg.Func("f", "h", func() float64 { return 1 })
	reg.Histogram("hst", "h", []float64{1}).Observe(0.5)
	reg.Publish()
	if reg.Published() != nil || reg.ScalarNames() != nil {
		t.Fatal("nil registry produced output")
	}

	var o *Observer
	o.EndBatch(0, &trace.BatchRecord{End: 10}, nil)
	o.NoteEvent(0)
	o.Publish()
	if o.Status() != nil || o.Config().Active() {
		t.Fatal("nil observer produced output")
	}
}

func TestRegistryRender(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("guvm_test_total", "a counter")
	c.Add(3)
	reg.Gauge("guvm_test_gauge", "a gauge").Set(2.5)
	reg.Func("guvm_test_func", "a pull gauge", func() float64 { return 7 })
	h := reg.Histogram("guvm_test_hist", "a histogram", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(100)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE guvm_test_total counter",
		"guvm_test_total 3",
		"guvm_test_gauge 2.5",
		"guvm_test_func 7",
		`guvm_test_hist_bucket{le="1"} 1`,
		`guvm_test_hist_bucket{le="10"} 2`,
		`guvm_test_hist_bucket{le="+Inf"} 3`,
		"guvm_test_hist_sum 105.5",
		"guvm_test_hist_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	// Render twice: byte-identical (deterministic ordering + formatting).
	var buf2 bytes.Buffer
	if err := reg.WritePrometheus(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Fatal("two renders of the same registry differ")
	}
}

// TestAddBatchPartition pins the acceptance contract: the LanePhase spans
// of a batch sum exactly to End-Start, and the detail spans cover the
// serial service time.
func TestAddBatchPartition(t *testing.T) {
	tr := NewTracer()
	rec := &trace.BatchRecord{
		ID:         4,
		Start:      1_000_000,
		End:        1_500_000,
		TSetup:     30_000,
		TFetch:     80_000,
		TDedup:     20_000,
		TReplay:    40_000,
		TBlockMgmt: 60_000,
		TDMAMap:    50_000,
		TUnmap:     30_000,
		TPopulate:  40_000,
		TTransfer:  120_000,
		TPageTable: 10_000,
		TEvict:     20_000,
	}
	tr.AddBatch(rec)

	var phaseSum, detailSum sim.Time
	for _, s := range tr.Spans() {
		switch s.Lane {
		case LanePhase:
			phaseSum += s.Dur
		case LaneDetail:
			detailSum += s.Dur
		}
	}
	if phaseSum != rec.Duration() {
		t.Fatalf("phase spans sum to %d, want End-Start = %d", phaseSum, rec.Duration())
	}
	// service = 500000 - 30000 - 80000 - 20000 - 40000 = 330000, and the
	// component timers sum to 330000 exactly, so no residual span.
	if detailSum != 330_000 {
		t.Fatalf("detail spans sum to %d, want 330000", detailSum)
	}
	for _, s := range tr.Spans() {
		if s.Name == "service_other" {
			t.Fatal("unexpected residual span for an exactly-covered service phase")
		}
	}
}

func TestChromeTraceLoads(t *testing.T) {
	tr := NewTracer()
	tr.AddBatch(&trace.BatchRecord{ID: 0, Start: 0, End: 100, TSetup: 10, TFetch: 20, TDedup: 10, TReplay: 30, TTransfer: 40})
	tr.AddKernel(0, 0, 500)
	tr.AddInstant("dispatch", 7)

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Ph   string  `json:"ph"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Name string  `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ns" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	var xs, ms, is int
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			xs++
		case "M":
			ms++
		case "i":
			is++
		}
	}
	if xs == 0 || ms == 0 || is != 1 {
		t.Fatalf("event mix: %d complete, %d metadata, %d instant", xs, ms, is)
	}
}

func TestMicroString(t *testing.T) {
	for _, tc := range []struct {
		ns   sim.Time
		want string
	}{
		{0, "0.000"}, {1, "0.001"}, {999, "0.999"}, {1000, "1.000"},
		{1234567, "1234.567"}, {-1500, "-1.500"},
	} {
		if got := microString(tc.ns); got != tc.want {
			t.Errorf("microString(%d) = %q, want %q", tc.ns, got, tc.want)
		}
	}
}

func TestSamplerSeries(t *testing.T) {
	reg := NewRegistry()
	n := 0.0
	reg.Func("guvm_n", "test", func() float64 { n++; return n })
	s := NewSampler(reg, 1)
	s.Sample(100, 0)
	s.Sample(200, 1)

	var csv bytes.Buffer
	if err := s.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	want := "time_ns,batch,guvm_n\n100,0,1\n200,1,2\n"
	if csv.String() != want {
		t.Fatalf("CSV = %q, want %q", csv.String(), want)
	}

	var js bytes.Buffer
	if err := s.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Columns []string    `json:"columns"`
		Rows    [][]float64 `json:"rows"`
	}
	if err := json.Unmarshal(js.Bytes(), &doc); err != nil {
		t.Fatalf("series JSON invalid: %v\n%s", err, js.String())
	}
	if len(doc.Columns) != 3 || len(doc.Rows) != 2 || doc.Rows[1][2] != 2 {
		t.Fatalf("series JSON shape wrong: %+v", doc)
	}
}

func TestObserverSamplesAndPublishes(t *testing.T) {
	o := New(Config{Trace: true, SampleInterval: 2})
	o.Registry.Counter("guvm_obs_test_total", "test").Add(5)
	o.SetStatusFunc(func() any { return map[string]int{"done": 1} })

	for id := 0; id < 4; id++ {
		start := sim.Time(id * 1000)
		o.EndBatch(id, &trace.BatchRecord{ID: int32(id), Start: start, End: start + 500, TSetup: 10, TFetch: 100, TReplay: 50}, nil)
	}
	if got := len(o.Sampler.Rows()); got != 2 {
		t.Fatalf("sampled %d rows at interval 2 over 4 batches, want 2", got)
	}
	if !strings.Contains(string(o.Registry.Published()), "guvm_obs_test_total 5") {
		t.Fatalf("published exposition missing counter:\n%s", o.Registry.Published())
	}
	if !strings.Contains(string(o.Status()), `"done":1`) {
		t.Fatalf("published status = %s", o.Status())
	}
	if len(o.Tracer.Spans()) == 0 {
		t.Fatal("tracing enabled but no spans recorded")
	}
}

func TestServeEndpoints(t *testing.T) {
	o := New(Config{SampleInterval: 1})
	o.Registry.Counter("guvm_live_total", "test").Add(9)
	o.SetStatusFunc(func() any { return map[string]string{"state": "running"} })
	o.Publish()

	srv, err := Serve("127.0.0.1:0", o)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (int, string) {
		c := http.Client{Timeout: 5 * time.Second}
		resp, err := c.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "guvm_live_total 9") {
		t.Fatalf("/metrics -> %d %q", code, body)
	}
	if code, body := get("/status"); code != 200 || !strings.Contains(body, `"state":"running"`) {
		t.Fatalf("/status -> %d %q", code, body)
	}
	if code, _ := get("/progress"); code != 200 {
		t.Fatalf("/progress -> %d", code)
	}
	if code, body := get("/debug/pprof/cmdline"); code != 200 || body == "" {
		t.Fatalf("/debug/pprof/cmdline -> %d", code)
	}
}

// TestServeMountsAndShutdown checks the two service-layer seams on the
// live endpoint: extra subsystems mount handlers on the shared mux, and
// shutdown is graceful but deadline-bounded — an in-flight request
// drains cleanly, while a stuck one is severed instead of hanging Close
// forever.
func TestServeMountsAndShutdown(t *testing.T) {
	o := New(Config{SampleInterval: 1})
	o.Publish()

	release := make(chan struct{})
	started := make(chan struct{}, 2)
	srv, err := Serve("127.0.0.1:0", o, func(mux *http.ServeMux) {
		mux.HandleFunc("/extra", func(w http.ResponseWriter, _ *http.Request) {
			fmt.Fprint(w, "mounted")
		})
		mux.HandleFunc("/stuck", func(w http.ResponseWriter, _ *http.Request) {
			started <- struct{}{}
			<-release // holds the connection past the shutdown deadline
		})
	})
	if err != nil {
		t.Fatal(err)
	}

	c := http.Client{Timeout: 5 * time.Second}
	resp, err := c.Get("http://" + srv.Addr() + "/extra")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(b) != "mounted" {
		t.Fatalf("/extra body = %q", b)
	}

	// A request stuck in a handler must not hold Shutdown past its
	// deadline: the graceful phase reports the failure and the connection
	// is closed hard.
	done := make(chan error, 1)
	go func() {
		_, err := http.Get("http://" + srv.Addr() + "/stuck")
		done <- err
	}()
	<-started
	start := time.Now()
	if err := srv.Shutdown(100 * time.Millisecond); err == nil {
		t.Fatal("Shutdown reported clean drain with a stuck request")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("Shutdown took %v, want deadline-bounded", elapsed)
	}
	close(release)
	<-done // the severed client errors out rather than hanging

	// Clean path: no in-flight work, shutdown drains immediately.
	srv2, err := Serve("127.0.0.1:0", o)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv2.Close(); err != nil {
		t.Fatalf("idle Close: %v", err)
	}
}
