package telemetry

import (
	"context"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"walberla/internal/testutil"
)

func fetch(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestMetricsServerServesSnapshots(t *testing.T) {
	s := NewMetricsServer()
	r := NewRegistry()
	r.Counter("steps").Add(3)
	s.Register(0, r)
	addr, err := s.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	body := fetch(t, "http://"+addr+"/metrics")
	if !strings.Contains(body, "steps") {
		t.Errorf("merged snapshot lacks the registered counter: %s", body)
	}
	ranks := fetch(t, "http://"+addr+"/metrics/ranks")
	if !strings.HasPrefix(ranks, "[") {
		t.Errorf("per-rank endpoint is not an array: %s", ranks)
	}
}

// TestMetricsServerCloseStopsServing is the shutdown-regression test: a
// Close must refuse further connections and reap the serve goroutine —
// the old implementation only closed the listener and leaked the
// http.Serve goroutine with any open connections.
func TestMetricsServerCloseStopsServing(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		s := NewMetricsServer()
		s.Register(0, NewRegistry())
		addr, err := s.Serve("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		fetch(t, "http://"+addr+"/metrics")
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
			t.Fatal("server still serving after Close")
		}
		if err := s.Close(); err != nil {
			t.Fatalf("second Close: %v", err)
		}
	}
	// The serve goroutines must be gone. Allow scheduler slack: spin
	// briefly instead of asserting an instant count.
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after 5 serve/close cycles",
				before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMetricsServerCutsOffSlowHeader: the listener has read deadlines, so a
// client that opens a connection and never finishes its request header is
// disconnected instead of holding a goroutine until the process exits.
func TestMetricsServerCutsOffSlowHeader(t *testing.T) {
	testutil.CheckLeaks(t)
	s := NewMetricsServer()
	if s.readHeaderTimeout <= 0 {
		t.Fatal("metrics server has no header deadline")
	}
	s.readHeaderTimeout = 100 * time.Millisecond
	s.Register(0, NewRegistry())
	addr, err := s.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /metrics HTTP/1.1\r\nHost: slow\r\n")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck // a TCP conn accepts deadlines
	if _, err := io.ReadAll(conn); err != nil {
		t.Errorf("slow-header connection was not closed by the server: %v", err)
	}
	// A well-behaved client is still served.
	if body := fetch(t, "http://"+addr+"/metrics"); !strings.Contains(body, "counters") {
		t.Errorf("metrics endpoint stopped serving: %s", body)
	}
}

// TestMetricsServerContextCancelDrains: cancelling the serve context must
// drain the server exactly like Close.
func TestMetricsServerContextCancelDrains(t *testing.T) {
	s := NewMetricsServer()
	s.Register(0, NewRegistry())
	ctx, cancel := context.WithCancel(context.Background())
	addr, err := s.ServeContext(ctx, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fetch(t, "http://"+addr+"/metrics")
	cancel()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := http.Get("http://" + addr + "/metrics"); err != nil {
			break // refused: the server is down
		}
		if time.Now().After(deadline) {
			t.Fatal("server still serving 2s after context cancellation")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close after cancellation: %v", err)
	}
}

// TestMetricsServerSessionLabels: registries registered under a session
// label aggregate per label on /metrics/sessions, still contribute to the
// fleet-wide /metrics view, and disappear when the label is unregistered.
func TestMetricsServerSessionLabels(t *testing.T) {
	s := NewMetricsServer()
	fleet := NewRegistry()
	fleet.Counter("fleet_steps").Add(1)
	s.Register(0, fleet)
	for rank := 0; rank < 2; rank++ {
		r := NewRegistry()
		r.Counter("session_steps").Add(int64(rank + 1))
		s.RegisterLabeled("sess-a", rank, r)
	}
	rb := NewRegistry()
	rb.Counter("session_steps").Add(7)
	s.RegisterLabeled("sess-b", 0, rb)

	addr, err := s.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	sessions := fetch(t, "http://"+addr+"/metrics/sessions")
	for _, want := range []string{`"sess-a"`, `"sess-b"`, "session_steps"} {
		if !strings.Contains(sessions, want) {
			t.Errorf("/metrics/sessions lacks %s: %s", want, sessions)
		}
	}
	if strings.Contains(sessions, "fleet_steps") {
		t.Errorf("/metrics/sessions leaked the unlabeled registry: %s", sessions)
	}
	merged := fetch(t, "http://"+addr+"/metrics")
	for _, want := range []string{"fleet_steps", "session_steps"} {
		if !strings.Contains(merged, want) {
			t.Errorf("/metrics lacks %s: %s", want, merged)
		}
	}

	s.UnregisterLabeled("sess-a")
	sessions = fetch(t, "http://"+addr+"/metrics/sessions")
	if strings.Contains(sessions, "sess-a") {
		t.Errorf("sess-a survived UnregisterLabeled: %s", sessions)
	}
	if !strings.Contains(sessions, "sess-b") {
		t.Errorf("UnregisterLabeled removed the wrong label: %s", sessions)
	}
}
