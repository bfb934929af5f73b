package server

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestBodyLimitReturns413: a request body beyond Config.MaxBodyBytes is
// rejected with a structured 413 before any pipeline work, and counted.
func TestBodyLimitReturns413(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxBodyBytes: 512})

	big := fmt.Sprintf(`{"bench":"tomcatv","config":"BS","pad":%q}`, strings.Repeat("x", 2048))
	resp, err := http.Post(ts.URL+"/v1/compile", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d body %s, want 413", resp.StatusCode, buf.Bytes())
	}
	eb := decodeError(t, buf.Bytes())
	if eb.Kind != "too_large" {
		t.Errorf("kind %q, want too_large", eb.Kind)
	}
	if got := counters(s)["server/too_large"]; got != 1 {
		t.Errorf("server/too_large = %d, want 1", got)
	}

	// Oversized grids are cut off the same way.
	resp, err = http.Post(ts.URL+"/v1/grid", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("grid status %d, want 413", resp.StatusCode)
	}

	// A request under the limit still works.
	resp, body := post(t, ts.URL+"/v1/compile", CompileRequest{Bench: "tomcatv", Config: "BS"})
	if resp.StatusCode != http.StatusOK {
		t.Errorf("in-limit compile: status %d body %s", resp.StatusCode, body)
	}
}

// TestReadHeaderTimeoutDropsSlowLoris: a client that dials and then
// never finishes its request headers is disconnected by the listener's
// ReadHeaderTimeout instead of pinning a connection forever.
func TestReadHeaderTimeoutDropsSlowLoris(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	httpSrv := NewHTTPServer(s.Handler(), 100*time.Millisecond)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go httpSrv.Serve(ln)
	defer httpSrv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Half a request line, then stall.
	if _, err := conn.Write([]byte("POST /v1/compile HT")); err != nil {
		t.Fatal(err)
	}
	// The server must terminate the connection promptly — either a bare
	// close or an error response followed by EOF — rather than letting
	// the stalled client pin it open. Drain until EOF and time it.
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	start := time.Now()
	buf := make([]byte, 4096)
	for {
		if _, err := conn.Read(buf); err != nil {
			break
		}
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("connection survived %s past a 100ms ReadHeaderTimeout", elapsed)
	}

	// The server still serves well-formed requests afterwards.
	resp, err := http.Post("http://"+ln.Addr().String()+"/v1/compile",
		"application/json", strings.NewReader(`{"bench":"tomcatv","config":"BS"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("post-loris compile: status %d", resp.StatusCode)
	}
}

// TestJitterRetryAfterRange: the jittered hint always lands in
// [base, 1.5*base+1s), so shed clients spread their retries instead of
// stampeding back in lockstep.
func TestJitterRetryAfterRange(t *testing.T) {
	for _, base := range []time.Duration{time.Second, 5 * time.Second, 30 * time.Second} {
		lo, hi := base, base+base/2+time.Second
		distinct := map[time.Duration]bool{}
		for i := 0; i < 200; i++ {
			d := JitterRetryAfter(base)
			if d < lo || d >= hi {
				t.Fatalf("JitterRetryAfter(%s) = %s, want [%s, %s)", base, d, lo, hi)
			}
			distinct[d] = true
		}
		if len(distinct) < 2 {
			t.Errorf("JitterRetryAfter(%s) returned one value 200 times; no jitter", base)
		}
	}
}
