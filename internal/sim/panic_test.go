package sim

import (
	"errors"
	"strings"
	"testing"
)

// TestEnginePanicIsolated: a panicking callback must not unwind through
// Run — the engine converts it into the run's terminal error.
func TestEnginePanicIsolated(t *testing.T) {
	e := NewEngine()
	e.Schedule(5, func() {})
	e.Schedule(10, func() { panic("model bug") })
	e.Schedule(20, func() { t.Error("event after panic must not run") })

	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("panic escaped Run: %v", r)
		}
	}()
	at, err := e.Run()
	if err == nil {
		t.Fatal("panicking run returned nil error")
	}
	if !errors.Is(err, ErrCallbackPanic) {
		t.Fatalf("error does not match ErrCallbackPanic: %v", err)
	}
	if at != 10 {
		t.Fatalf("run ended at virtual time %d, want 10 (the panicking event)", at)
	}
}

// TestEnginePanicDiagnostics: the structured error carries the recovered
// value, dispatch position and a stack trace.
func TestEnginePanicDiagnostics(t *testing.T) {
	e := NewEngine()
	e.Schedule(3, func() {})
	e.Schedule(7, func() { panic("boom at seven") })
	_, err := e.Run()

	var pe *CallbackPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("terminal error is %T, want *CallbackPanicError", err)
	}
	if pe.Value != "boom at seven" {
		t.Fatalf("recovered value %v, want the panic argument", pe.Value)
	}
	if pe.At != 7 {
		t.Fatalf("At = %d, want 7", pe.At)
	}
	if pe.Executed != 2 {
		t.Fatalf("Executed = %d, want 2 (the panicking event, inclusive)", pe.Executed)
	}
	if !strings.Contains(pe.Stack, "goroutine") {
		t.Fatal("Stack does not look like a captured stack trace")
	}
	if !strings.Contains(pe.Error(), "boom at seven") {
		t.Fatalf("message omits the panic value: %s", pe.Error())
	}
}

// TestEnginePanicFirstErrorWins: a panic after an explicit Fail must not
// displace the recorded terminal error, and vice versa.
func TestEnginePanicFirstErrorWins(t *testing.T) {
	sentinel := errors.New("model failure")
	e := NewEngine()
	e.Schedule(1, func() {
		e.Fail(sentinel)
		panic("panic after fail")
	})
	_, err := e.Run()
	if err != sentinel {
		t.Fatalf("terminal error %v, want the first Fail", err)
	}
}

// TestEnginePanicTerminalAcrossRuns: once a run died to a panic, further
// Run calls return the same error without dispatching anything.
func TestEnginePanicTerminalAcrossRuns(t *testing.T) {
	e := NewEngine()
	e.Schedule(1, func() { panic("dead") })
	e.Schedule(2, func() {})
	_, first := e.Run()
	if first == nil {
		t.Fatal("expected a terminal error")
	}
	ran := false
	e.Schedule(3, func() { ran = true })
	_, again := e.Run()
	if again != first {
		t.Fatalf("re-Run returned %v, want the original terminal error", again)
	}
	if ran {
		t.Fatal("failed engine dispatched new events")
	}
	if err := e.Err(); err != first {
		t.Fatalf("Err() = %v, want the terminal error", err)
	}
}

// TestEnginePanicLeavesLaterEventsPending: a panic ends the run at the
// panicking event's instant, like Fail, and the events behind it stay
// queued and unrun.
func TestEnginePanicLeavesLaterEventsPending(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() { panic("model bug") })
	e.Schedule(20, func() { t.Error("event after panic ran") })
	e.Schedule(30, func() { t.Error("event after panic ran") })
	if _, err := e.Run(); !errors.Is(err, ErrCallbackPanic) {
		t.Fatalf("err = %v, want ErrCallbackPanic", err)
	}
	if e.Now() != 10 || e.Executed() != 1 || e.Pending() != 2 {
		t.Fatalf("clock %d, executed %d, pending %d; want 10, 1, 2", e.Now(), e.Executed(), e.Pending())
	}
}
