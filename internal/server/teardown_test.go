package server

import (
	"errors"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"accelstream/internal/checkpoint"
	"accelstream/internal/core"
	"accelstream/internal/stream"
	"accelstream/internal/wire"
)

// holdEngine wraps a built-in engine with one goroutine its factory
// starts and only Close ends: the stand-in for what a real factory takes
// before Start runs (a shard router's backend sessions). startErr and
// importErr fail those steps.
type holdEngine struct {
	Engine
	held      chan struct{}
	startErr  error
	importErr error
}

func (e *holdEngine) Start() error {
	if e.startErr != nil {
		return e.startErr
	}
	return e.Engine.Start()
}

func (e *holdEngine) ImportState(tuples []core.Input) error {
	if e.importErr != nil {
		return e.importErr
	}
	return e.Engine.(StateImporter).ImportState(tuples)
}

func (e *holdEngine) Close() error {
	close(e.held)
	return e.Engine.Close()
}

// holdFactory builds holdEngines over the built-in engines. first, when
// set, shapes (or holds back) only the first engine the server builds,
// so the next session on the same server opens normally.
func holdFactory(first func(*holdEngine)) func(wire.OpenConfig) (Engine, error) {
	var built atomic.Int32
	return func(cfg wire.OpenConfig) (Engine, error) {
		inner, err := buildEngine(cfg)
		if err != nil {
			return nil, err
		}
		e := &holdEngine{Engine: inner, held: make(chan struct{})}
		go func() { <-e.held }()
		if built.Add(1) == 1 && first != nil {
			first(e)
		}
		return e, nil
	}
}

// failWrites is a listener whose connections fail every write, so the
// server's OpenAck never reaches the client.
type failWrites struct{ net.Listener }

type failWriteConn struct{ net.Conn }

func (l failWrites) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return failWriteConn{c}, nil
}

func (failWriteConn) Write([]byte) (int, error) { return 0, errors.New("write refused") }

// restoreSnapshot writes one snapshot a session of cfg's shape resumes
// from, four R and four S window tuples cut at seqs (4, 4), and returns
// its directory.
func restoreSnapshot(t *testing.T, cfg wire.OpenConfig) string {
	t.Helper()
	dir := t.TempDir()
	st, err := checkpoint.NewStore(dir, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	var tuples []core.Input
	for _, side := range []stream.Side{stream.SideR, stream.SideS} {
		for i := 0; i < 4; i++ {
			tuples = append(tuples, core.Input{Side: side, Tuple: stream.Tuple{Key: uint32(i), Seq: uint64(i)}})
		}
	}
	_, err = st.Write(checkpoint.Snapshot{
		Meta: checkpoint.Meta{Engine: byte(cfg.Engine), Cores: cfg.Cores, Window: cfg.Window, ShardCount: 1,
			SeqR: 4, SeqS: 4, TuplesR: 4, TuplesS: 4, UnixNanos: time.Now().UnixNano()},
		Tuples: tuples,
	})
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

// openRaw sends cfg's Open frame over a bare connection and returns it.
func openRaw(t *testing.T, addr string, cfg wire.OpenConfig) *net.TCPConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(encode(t, func(w *wire.Writer) error { return w.WriteOpen(cfg) })); err != nil {
		t.Fatal(err)
	}
	return conn.(*net.TCPConn)
}

// readToEOF returns everything the server writes until it closes conn.
func readToEOF(t *testing.T, conn net.Conn) []byte {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	b, err := io.ReadAll(conn)
	if err != nil {
		t.Fatalf("reading until the server closes: %v", err)
	}
	conn.Close()
	return b
}

// TestHandshakeFailureReleasesEverything fails a session at each step of
// its handshake and checks that the teardown released what the steps
// before it took: no goroutine outlives the server (the engine was
// closed; its factory's goroutine with it), the tenant holds no session
// and no window memory, and the session is in the metrics history. A
// restored snapshot the failed session took is handed back: the next
// session of its shape resumes from it.
func TestHandshakeFailureReleasesEverything(t *testing.T) {
	cfg := wire.OpenConfig{Engine: wire.EngineSoftUni, Cores: 2, Window: 64}
	dialed := make(chan struct{})
	rows := []struct {
		name     string
		first    func(*holdEngine) // shapes the server's first engine
		restore  bool              // a snapshot of cfg's shape is on disk
		server   func(*Config)
		listen   func(net.Listener) net.Listener
		open     func(t *testing.T, addr string) // runs the failing sessions
		sessions int
	}{
		{name: "peer resets after open", sessions: 200, open: func(t *testing.T, addr string) {
			for i := 0; i < 200; i++ {
				conn := openRaw(t, addr, cfg)
				conn.SetLinger(0)
				conn.Close()
			}
		}},
		{name: "open-ack write fails", sessions: 1,
			listen: func(ln net.Listener) net.Listener { return failWrites{ln} },
			open: func(t *testing.T, addr string) {
				if b := readToEOF(t, openRaw(t, addr, cfg)); len(b) != 0 {
					t.Errorf("client read %d bytes through a connection that fails writes", len(b))
				}
			}},
		{name: "start fails", sessions: 1,
			first: func(e *holdEngine) { e.startErr = errors.New("start refused") },
			open: func(t *testing.T, addr string) {
				if _, err := Dial(addr, cfg); err == nil || !strings.Contains(err.Error(), "start refused") {
					t.Errorf("Dial = %v, want the start failure", err)
				}
			}},
		{name: "restore import fails", sessions: 1, restore: true,
			first: func(e *holdEngine) { e.importErr = errors.New("import refused") },
			open: func(t *testing.T, addr string) {
				if _, err := Dial(addr, cfg); err == nil || !strings.Contains(err.Error(), "import refused") {
					t.Errorf("Dial = %v, want the import failure", err)
				}
			}},
		{name: "validate fails on the snapshot's shape", sessions: 1, restore: true,
			// The Open frame decodes valid; the server's own default kernel,
			// which an auto session inherits after the snapshot is taken,
			// does not. The resuming session names its kernel.
			server: func(c *Config) { c.ProbeKernel = 99 },
			open: func(t *testing.T, addr string) {
				if _, err := Dial(addr, cfg); err == nil || !strings.Contains(err.Error(), "probe kernel") {
					t.Errorf("Dial = %v, want the validation failure", err)
				}
			}},
		{name: "client open-ack read times out", sessions: 1,
			first: func(*holdEngine) { <-dialed },
			open: func(t *testing.T, addr string) {
				_, err := DialWith(addr, cfg, DialOptions{Timeout: 100 * time.Millisecond})
				close(dialed)
				if !isTimeout(err) {
					t.Errorf("Dial = %v, want a timeout", err)
				}
			}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			scfg := Config{NewEngine: holdFactory(row.first)}
			if row.restore {
				scfg.CheckpointDir, scfg.CheckpointInterval = restoreSnapshot(t, cfg), -1
			}
			if row.server != nil {
				row.server(&scfg)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			if row.listen != nil {
				ln = row.listen(ln)
			}
			srv, addr := serveOn(t, scfg, ln)
			row.open(t, addr)
			waitFor(t, "the failed sessions to close", func() bool {
				m := srv.Metrics()
				for _, sm := range m {
					if sm.Open {
						return false
					}
				}
				return len(m) == row.sessions
			})
			tenants, _ := srv.TenantMetrics()
			if len(tenants) != 1 || tenants[0].Admitted == 0 {
				t.Fatalf("tenants %+v, want the one every session was admitted under", tenants)
			}
			if u := tenants[0]; u.Sessions != 0 || u.WindowBytes != 0 {
				t.Errorf("tenant %q holds %d sessions and %d window bytes after every session failed",
					u.Tenant, u.Sessions, u.WindowBytes)
			}
			if !row.restore {
				return
			}
			resume := cfg
			resume.ProbeKernel = stream.KernelHash
			c, err := Dial(addr, resume)
			if err != nil {
				t.Fatal(err)
			}
			if seqR, seqS, ok := c.Resumed(); !ok || seqR != 4 || seqS != 4 {
				t.Errorf("next session resumed=%v at (%d, %d), want the snapshot's (4, 4)", ok, seqR, seqS)
			}
			if _, err := c.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
