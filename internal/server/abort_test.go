package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"accelstream/internal/core"
	"accelstream/internal/stream"
	"accelstream/internal/wire"
)

// rawFrame encodes one frame of any type and payload, valid CRC included,
// so a test can send what no Writer method would.
func rawFrame(t wire.FrameType, payload []byte) []byte {
	b := append([]byte{byte(t)}, binary.AppendUvarint(nil, uint64(len(payload)))...)
	b = append(b, payload...)
	crc := crc32.Update(crc32.Update(0, crc32.IEEETable, []byte{byte(t)}), crc32.IEEETable, payload)
	return binary.BigEndian.AppendUint32(b, crc)
}

// badSideBatch is a Batch frame whose one tuple names no stream side.
func badSideBatch() []byte {
	payload := binary.AppendUvarint(binary.AppendUvarint(nil, 1), 1)
	return rawFrame(wire.FrameBatch, append(payload, 7, 0, 0, 0, 0, 0, 0, 0, 0))
}

// failingEngine refuses every push and has no snapshot or import support.
type failingEngine struct{ out chan stream.Result }

func (e *failingEngine) Start() error                  { return nil }
func (e *failingEngine) PushBatch([]core.Input) error  { return errors.New("engine refused the batch") }
func (e *failingEngine) Results() <-chan stream.Result { return e.out }
func (e *failingEngine) Close() error                  { close(e.out); return nil }
func (e *failingEngine) Backlog() int                  { return 0 }

// abortRow is one way a session ends abnormally: the server it runs
// against, whether the client sends an Open first, and what the client
// then writes in one conn.Write before it half-closes (eof) or waits for
// the server to give up.
type abortRow struct {
	name   string
	cfg    Config
	noOpen bool
	send   []byte
	eof    bool
}

func abortRows(t *testing.T) []abortRow {
	discard := Config{NewEngine: newDiscardEngine}
	failing := Config{NewEngine: func(wire.OpenConfig) (Engine, error) {
		return &failingEngine{out: make(chan stream.Result)}, nil
	}}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	badCRC := batchFrames(t, 3, 8)
	badCRC[len(badCRC)-1] ^= 0xff
	commit := encode(t, func(w *wire.Writer) error {
		return w.WriteRebalanceCommit(wire.RebalanceInfo{TuplesR: 1})
	})
	return []abortRow{
		{name: "first frame not open", cfg: discard, noOpen: true, send: rawFrame(wire.FrameBatch, nil)},
		{name: "bad open", cfg: discard, noOpen: true, send: rawFrame(wire.FrameOpen, []byte{0xff})},
		{name: "bad batch", cfg: discard, send: badSideBatch()},
		{name: "bad batch behind good frames", cfg: discard, send: cat(batchFrames(t, 2, 8), badSideBatch())},
		{name: "over-MaxBatch frame", cfg: Config{NewEngine: newDiscardEngine, MaxBatch: 4}, send: batchFrames(t, 1, 8)},
		{name: "over-MaxBatch frame behind good frames", cfg: Config{NewEngine: newDiscardEngine, MaxBatch: 8},
			send: cat(batchFrames(t, 2, 8), batchFrames(t, 1, 9))},
		{name: "CRC failure behind good frames", cfg: discard, send: badCRC},
		{name: "unexpected frame type", cfg: discard, send: cat(batchFrames(t, 1, 8), rawFrame(wire.FrameCredit, []byte{1}))},
		{name: "late state chunk", cfg: Config{}, send: cat(batchFrames(t, 1, 8), rawFrame(wire.FrameStateChunk, []byte{0}))},
		{name: "import unsupported", cfg: discard, send: rawFrame(wire.FrameStateChunk, []byte{0})},
		{name: "bad state chunk", cfg: Config{}, send: rawFrame(wire.FrameStateChunk, []byte{0xff})},
		{name: "commit mismatch", cfg: discard, send: cat(batchFrames(t, 1, 8), commit)},
		{name: "bad commit", cfg: discard, send: rawFrame(wire.FrameRebalanceCommit, nil)},
		{name: "checkpoint unsupported", cfg: failing, send: rawFrame(wire.FrameCheckpoint, nil)},
		{name: "engine push error", cfg: failing, send: batchFrames(t, 1, 8)},
		{name: "idle timeout", cfg: Config{NewEngine: newDiscardEngine, IdleTimeout: 50 * time.Millisecond}, send: batchFrames(t, 1, 8)},
		{name: "client error frame", cfg: discard, send: cat(batchFrames(t, 1, 8), rawFrame(wire.FrameError, []byte("client gave up")))},
		{name: "EOF", cfg: discard, send: batchFrames(t, 1, 8), eof: true},
	}
}

// serverFrames reads what the server writes until it closes the
// connection, one line per frame: Credit(n), Error("…"), or the frame
// type for anything else.
func serverFrames(t *testing.T, rs *rawSession) string {
	t.Helper()
	rs.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	var out []string
	for {
		f, err := rs.r.ReadFrame()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatalf("after %q: %v", out, err)
		}
		switch f.Type {
		case wire.FrameCredit:
			n, _ := wire.DecodeCredit(f.Payload)
			out = append(out, fmt.Sprintf("Credit(%d)", n))
		case wire.FrameError:
			out = append(out, fmt.Sprintf("Error(%q)", wire.DecodeError(f.Payload)))
		default:
			out = append(out, f.Type.String())
		}
	}
	if len(out) == 0 {
		return "(nothing)"
	}
	return strings.Join(out, " ")
}

// TestAbortPathsGolden pins, for every way a session ends abnormally, the
// frames the server writes before it closes the connection: the credits
// it still grants, the Error frame's text, or nothing at all.
func TestAbortPathsGolden(t *testing.T) {
	var got strings.Builder
	for _, row := range abortRows(t) {
		_, addr := startServer(t, row.cfg)
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		rs := &rawSession{conn: conn, r: wire.NewReader(conn)}
		if !row.noOpen {
			rs.write(t, encode(t, func(w *wire.Writer) error {
				return w.WriteOpen(wire.OpenConfig{Engine: wire.EngineSoftUni, Cores: 1, Window: 64})
			}))
			rs.read(t, untilFrame(wire.FrameOpenAck))
		}
		rs.write(t, row.send)
		if row.eof {
			conn.(*net.TCPConn).CloseWrite()
		}
		fmt.Fprintf(&got, "%s: %s\n", row.name, serverFrames(t, rs))
		conn.Close()
	}
	path := filepath.Join("testdata", "abort_paths.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("abort paths differ from %s:\n got:\n%s\nwant:\n%s", path, got.String(), want)
	}
}
