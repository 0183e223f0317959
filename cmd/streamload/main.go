// Command streamload is the load generator for the stream-join service
// (cmd/streamd): it replays an internal/workload synthetic stream over
// the socket — saturated or paced to a fixed rate — and reports
// end-to-end throughput, result volume, and batch round-trip latency.
// With -verify (small windows) it also checks the received result
// multiset against the reference oracle, turning the loadgen into an
// end-to-end correctness probe.
//
// Usage:
//
//	streamload -addr localhost:7800 -engine uni -cores 8 -window 65536 -tuples 1000000
//	streamload -addr localhost:7800 -rate 200000 -dist zipf
//	streamload -addr localhost:7800 -conns 4 -tuples 4000000
//	streamload -addr localhost:7800 -engine uni -window 256 -tuples 20000 -verify
//	streamload -addr localhost:7800 -tls -tls-ca cert.pem -auth-token s3cret
//
// Against a secured streamd, -tls (with -tls-ca pointing at the server's
// certificate, or -tls-skip-verify for testing) encrypts the session and
// -auth-token authenticates it; -tls-cert/-tls-key add a client
// certificate for mutual TLS. Each of -tls-ca, -tls-servername,
// -tls-skip-verify and -tls-cert implies -tls.
package main

import (
	"crypto/tls"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"accelstream"
	"accelstream/internal/core"
	"accelstream/internal/stream"
	"accelstream/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "streamload:", err)
		os.Exit(1)
	}
}

// session abstracts what the loadgen needs from either a single
// connection (accelstream.Client) or a striped pool of them
// (accelstream.ClientPool, -conns > 1).
type session interface {
	SendBatch(batch []core.Input) error
	Results() <-chan stream.Result
	Close() (accelstream.SessionStats, error)
	Credits() int
	BatchRTT() (avg, max time.Duration, samples uint64)
}

// reportReject prints a typed handshake rejection as the run's outcome —
// the probe succeeded in measuring the server's admission answer. Returns
// false for errors that are not typed rejections (the caller fails as
// usual).
func reportReject(out io.Writer, err error) bool {
	var adm *accelstream.AdmissionError
	if errors.As(err, &adm) {
		fmt.Fprintf(out, "rejected: code=%s retry_after=%v\n", adm.Code, adm.RetryAfter)
		return true
	}
	if errors.Is(err, accelstream.ErrUnauthorized) {
		fmt.Fprintf(out, "rejected: code=unauthorized\n")
		return true
	}
	return false
}

func parseDist(name string) (workload.KeyDist, error) {
	switch name {
	case "uniform":
		return workload.Uniform, nil
	case "zipf":
		return workload.Zipf, nil
	case "disjoint":
		return workload.Disjoint, nil
	default:
		return 0, fmt.Errorf("unknown distribution %q (want uniform, zipf, or disjoint)", name)
	}
}

// run parses args (without the program name) into its own flag set and
// writes the run's report to out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("streamload", flag.ExitOnError)
	addr := fs.String("addr", "localhost:7800", "streamd address")
	engineName := fs.String("engine", "uni", "engine: uni, bi, or sim")
	cores := fs.Int("cores", 8, "join cores of the session engine")
	window := fs.Int("window", 1<<16, "per-stream window size")
	tuples := fs.Int("tuples", 1<<20, "total tuples to replay")
	batch := fs.Int("batch", 512, "tuples per batch frame")
	conns := fs.Int("conns", 1, "independent sessions to stripe batches over (each runs its own engine)")
	rate := fs.Float64("rate", 0, "offered load in tuples/s (0: saturate)")
	distName := fs.String("dist", "uniform", "key distribution: uniform, zipf, or disjoint")
	domain := fs.Int("domain", 0, "key domain size (0: generator default)")
	seed := fs.Int64("seed", 42, "workload seed")
	ordered := fs.Bool("ordered", false, "request punctuated result ordering (uni engine)")
	verify := fs.Bool("verify", false, "check results against the oracle (buffers all inputs+results; small runs only)")
	useTLS := fs.Bool("tls", false, "dial the server over TLS")
	tlsCA := fs.String("tls-ca", "", "PEM CA bundle that signs the server certificate (implies -tls)")
	tlsServerName := fs.String("tls-servername", "", "hostname to verify on the server certificate, when dialing by IP (implies -tls)")
	tlsSkipVerify := fs.Bool("tls-skip-verify", false, "dial over TLS without verifying the server certificate (testing only)")
	tlsCert := fs.String("tls-cert", "", "PEM client certificate for mutual TLS (requires -tls-key)")
	tlsKey := fs.String("tls-key", "", "PEM private key matching -tls-cert")
	authToken := fs.String("auth-token", "", "session auth token sent in the Open frame")
	tenant := fs.String("tenant", "", "tenant identity the session opens under (admission-control accounting on the server)")
	reportRejects := fs.Bool("report-rejects", false, "report a typed handshake rejection (code, retry-after) as the run's outcome instead of failing")
	dialTimeout := fs.Duration("dial-timeout", 0, "connect + handshake deadline (0: client default)")
	version := fs.Bool("version", false, "print version and exit")
	fs.Parse(args)

	if *version {
		fmt.Fprintln(out, accelstream.Version("streamload"))
		return nil
	}
	if (*tlsCert == "") != (*tlsKey == "") {
		return fmt.Errorf("-tls-cert and -tls-key must be given together")
	}

	engine, err := accelstream.ParseSessionEngine(*engineName)
	if err != nil {
		return err
	}
	dist, err := parseDist(*distName)
	if err != nil {
		return err
	}
	if *batch <= 0 || *tuples <= 0 {
		return fmt.Errorf("batch and tuples must be positive")
	}
	if *conns > 1 && *verify {
		return fmt.Errorf("-verify requires -conns 1: pooled sessions join independently, so the single-engine oracle does not apply")
	}

	gen, err := workload.NewGenerator(workload.Spec{Seed: *seed, Dist: dist, KeyDomain: *domain})
	if err != nil {
		return err
	}
	var opts []accelstream.DialOption
	if *useTLS || *tlsCA != "" || *tlsServerName != "" || *tlsSkipVerify || *tlsCert != "" {
		tlsCfg, err := accelstream.LoadClientTLS(*tlsCA, *tlsServerName, *tlsSkipVerify)
		if err != nil {
			return err
		}
		if *tlsCert != "" {
			pair, err := tls.LoadX509KeyPair(*tlsCert, *tlsKey)
			if err != nil {
				return fmt.Errorf("loading client key pair: %w", err)
			}
			tlsCfg.Certificates = []tls.Certificate{pair}
		}
		opts = append(opts, accelstream.WithTLS(tlsCfg))
	}
	if *dialTimeout > 0 {
		opts = append(opts, accelstream.WithDialTimeout(*dialTimeout))
	}
	sessCfg := accelstream.SessionConfig{
		Engine:    engine,
		Cores:     *cores,
		Window:    *window,
		Ordered:   *ordered,
		AuthToken: *authToken,
		Tenant:    *tenant,
	}
	var c session
	var pool *accelstream.ClientPool
	if *conns > 1 {
		pool, err = accelstream.DialPool(*addr, *conns, sessCfg, opts...)
		if err != nil {
			if *reportRejects && reportReject(out, err) {
				return nil
			}
			return err
		}
		pool.SetLogf(func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "streamload: "+format+"\n", args...)
		})
		c = pool
		fmt.Fprintf(out, "pool open: %d sessions, %v engine, %d cores, window %d each, %d credits total\n",
			*conns, engine, *cores, *window, pool.Credits())
	} else {
		c, err = accelstream.Dial(*addr, sessCfg, opts...)
		if err != nil {
			if *reportRejects && reportReject(out, err) {
				return nil
			}
			return err
		}
		fmt.Fprintf(out, "session open: %v engine, %d cores, window %d, credit window %d\n",
			engine, *cores, *window, c.Credits())
	}

	var pacer *workload.Pacer
	if *rate > 0 {
		if pacer, err = workload.NewPacer(*rate); err != nil {
			return err
		}
	}

	var inputs []core.Input
	var results []stream.Result
	var received uint64
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for r := range c.Results() {
			received++
			if *verify {
				results = append(results, r)
			}
		}
	}()

	start := time.Now()
	sent := 0
	for sent < *tuples {
		n := *batch
		if rem := *tuples - sent; rem < n {
			n = rem
		}
		b := gen.Take(n)
		if *verify {
			inputs = append(inputs, b...)
		}
		if pacer != nil {
			pacer.WaitBatch(n)
		}
		if err := c.SendBatch(b); err != nil {
			return err
		}
		sent += n
	}
	sendElapsed := time.Since(start)
	st, err := c.Close()
	if err != nil {
		return err
	}
	<-drained
	total := time.Since(start)

	fmt.Fprintf(out, "sent %d tuples in %d-tuple batches: ingest %.3f M tuples/s (send phase), %.3f M tuples/s (to full drain)\n",
		sent, *batch, float64(sent)/sendElapsed.Seconds()/1e6, float64(sent)/total.Seconds()/1e6)
	fmt.Fprintf(out, "results: %d received (%.4f per input tuple)\n", received, float64(received)/float64(sent))
	if avg, max, n := c.BatchRTT(); n > 0 {
		fmt.Fprintf(out, "batch round trip (send -> credit return, includes engine ingest): avg %v, max %v over %d batches\n", avg, max, n)
	}
	fmt.Fprintf(out, "server stats: %d tuples in / %d batches, %d results out\n", st.TuplesIn, st.BatchesIn, st.ResultsOut)
	if pool != nil && (pool.Replacements() > 0 || pool.Down() > 0) {
		// Sessions lost mid-run take their in-flight batches and counters
		// with them, so the aggregate bookkeeping cannot balance.
		fmt.Fprintf(out, "pool degraded during the run: %d sessions replaced, %d down; stats cover surviving sessions only\n",
			pool.Replacements(), pool.Down())
	} else if st.ResultsOut != received {
		return fmt.Errorf("server emitted %d results but client received %d", st.ResultsOut, received)
	}
	if *verify {
		if err := accelstream.VerifyExactlyOnce(*window, accelstream.EquiJoinOnKey(), inputs, results); err != nil {
			return err
		}
		fmt.Fprintln(out, "verify: exactly-once pairing holds against the oracle")
	}
	return nil
}
