package accelstream

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"accelstream/internal/testcert"
)

// secureWorkload builds a small alternating R/S stream with heavy key
// reuse so any window size produces matches.
func secureWorkload(n int) []Input {
	inputs := make([]Input, 0, n)
	for i := 0; i < n; i++ {
		side := SideR
		if i%2 == 1 {
			side = SideS
		}
		inputs = append(inputs, Input{Side: side, Tuple: Tuple{Key: uint32(i % 7), Val: uint32(i)}})
	}
	return inputs
}

// TestSecureServeDial is the facade-level acceptance test for a secured
// service: Serve with ServerConfig.TLS + AuthToken, Dial with the
// matching WithTLS + SessionConfig.AuthToken, and the secured session
// must stream oracle-equal results. Mismatched credentials come back as
// the typed ErrUnauthorized.
func TestSecureServeDial(t *testing.T) {
	const (
		window = 64
		tuples = 2000
		token  = "facade-token"
	)
	serverTLS, clientTLS, err := testcert.New()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve("127.0.0.1:0", ServerConfig{TLS: serverTLS, AuthToken: token})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	addr := srv.Addr().String()

	// Wrong credentials first: typed rejection, healthy accept loop after.
	if _, err := Dial(addr, SessionConfig{Engine: EngineSoftwareUniFlow, Cores: 1, Window: window, AuthToken: "wrong"},
		WithTLS(clientTLS)); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("wrong-token facade dial: got %v, want ErrUnauthorized", err)
	}

	c, err := Dial(addr, SessionConfig{Engine: EngineSoftwareUniFlow, Cores: 2, Window: window, AuthToken: token},
		WithTLS(clientTLS), WithDialTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	inputs := secureWorkload(tuples)
	var results []Result
	done := make(chan struct{})
	go func() {
		defer close(done)
		for r := range c.Results() {
			results = append(results, r)
		}
	}()
	for off := 0; off < len(inputs); off += 100 {
		if err := c.SendBatch(inputs[off : off+100]); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.Close()
	if err != nil {
		t.Fatal(err)
	}
	<-done
	if st.TuplesIn != tuples {
		t.Errorf("server ingested %d tuples, want %d", st.TuplesIn, tuples)
	}
	if len(results) == 0 {
		t.Fatal("no results over the secured facade; vacuous run")
	}
	if err := VerifyExactlyOnce(window, EquiJoinOnKey(), inputs, results); err != nil {
		t.Fatal(err)
	}
}

// TestSecureDialSharded drives DialSharded with the same TLS and token,
// as ShardConfig fields: two secured streamd endpoints behind one router
// session.
func TestSecureDialSharded(t *testing.T) {
	const (
		window = 64
		tuples = 2000
		token  = "facade-shard-token"
	)
	serverTLS, clientTLS, err := testcert.New()
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, 2)
	for i := range addrs {
		srv, err := Serve("127.0.0.1:0", ServerConfig{TLS: serverTLS, AuthToken: token})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
		})
		addrs[i] = srv.Addr().String()
	}
	r, err := DialSharded(ShardConfig{Addrs: addrs, Window: window,
		TLS: clientTLS, AuthToken: token,
		Redial: ShardRedialPolicy{Attempts: 2}})
	if err != nil {
		t.Fatal(err)
	}
	inputs := secureWorkload(tuples)
	var results []Result
	done := make(chan struct{})
	go func() {
		defer close(done)
		for res := range r.Results() {
			results = append(results, res)
		}
	}()
	for off := 0; off < len(inputs); off += 100 {
		if err := r.SendBatch(inputs[off : off+100]); err != nil {
			t.Fatal(err)
		}
	}
	st, err := r.Close()
	if err != nil {
		t.Fatal(err)
	}
	<-done
	if st.TuplesIn != tuples {
		t.Errorf("router counted %d tuples in, want %d", st.TuplesIn, tuples)
	}
	if st.ShardsDown != 0 {
		t.Errorf("secured sharded run lost shards: %+v", st)
	}
	if len(results) == 0 {
		t.Fatal("no results over the secured shard set; vacuous run")
	}
	if err := VerifyExactlyOnce(window, EquiJoinOnKey(), inputs, results); err != nil {
		t.Fatal(err)
	}
}

// TestServeTLSFilesError: a bad certificate path given to LoadServerTLS
// must come back as an error naming the key pair, not a nil config that
// would serve plaintext.
func TestServeTLSFilesError(t *testing.T) {
	cfg, err := LoadServerTLS("/nonexistent/cert.pem", "/nonexistent/key.pem")
	if err == nil || !strings.Contains(err.Error(), "loading TLS key pair") {
		t.Fatalf("LoadServerTLS of a nonexistent pair = (%v, %v), want a key-pair error", cfg, err)
	}
}
