package accelstream_test

import (
	"context"
	"fmt"
	"time"

	"accelstream"
)

// Example runs the software SplitJoin on two tiny streams and prints the
// single join result.
func Example() {
	engine, err := accelstream.NewSoftwareUniFlow(accelstream.SoftwareConfig{
		NumCores:   2,
		WindowSize: 8,
		BatchSize:  1,
	})
	if err != nil {
		panic(err)
	}
	if err := engine.Start(); err != nil {
		panic(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for r := range engine.Results() {
			fmt.Printf("matched key %d: R val %d with S val %d\n", r.R.Key, r.R.Val, r.S.Val)
		}
	}()
	engine.Push(accelstream.SideS, accelstream.Tuple{Key: 7, Val: 100})
	engine.Push(accelstream.SideR, accelstream.Tuple{Key: 7, Val: 200})
	if err := engine.Close(); err != nil {
		panic(err)
	}
	<-done
	// Output: matched key 7: R val 200 with S val 100
}

// ExampleSynthesize reproduces the paper's headline synthesis point: the
// 16-core uni-flow design with an 8K window on the Virtex-5.
func ExampleSynthesize() {
	rep, err := accelstream.Synthesize(accelstream.DesignSpec{
		Flow:       accelstream.UniFlow,
		NumCores:   16,
		WindowSize: 1 << 13,
	}, accelstream.Virtex5LX50T)
	if err != nil {
		panic(err)
	}
	fmt.Printf("fits=%v operating=%.0fMHz power=%.2fmW\n", rep.Fit.Feasible, rep.OperatingMHz, rep.PowerMW)
	// Output: fits=true operating=100MHz power=800.34mW
}

// ExampleParseQuery compiles the paper's Figure 7 query onto an FQP fabric.
func ExampleParseQuery() {
	customers, _ := accelstream.NewSchema("customer", "product_id", "age")
	products, _ := accelstream.NewSchema("product", "product_id", "price")
	cat := accelstream.Catalog{"customer": customers, "product": products}

	q, err := accelstream.ParseQuery(`
		SELECT c.age, p.price FROM customer ROWS 1536 AS c
		JOIN product ROWS 1536 AS p ON c.product_id = p.product_id
		WHERE c.age > 25`)
	if err != nil {
		panic(err)
	}
	plan, err := accelstream.CompileQuery(q, cat)
	if err != nil {
		panic(err)
	}
	fab, err := accelstream.NewFabric(4)
	if err != nil {
		panic(err)
	}
	asn, err := fab.AssignQuery("fig7", plan)
	if err != nil {
		panic(err)
	}
	fmt.Printf("mapped onto %d OP-Blocks, %d free\n", len(asn.Blocks), len(fab.FreeBlocks()))
	// Output: mapped onto 3 OP-Blocks, 1 free
}

// ExampleServe secures a deployment through config fields alone: TLS and
// an auth token on the listener, the token and a tenant in a session's
// config, and TLS plus the same Open-frame settings on every session of a
// sharded router, redials included. TLS and the dial deadline are the
// only Dial options. The example has no Output line, so it is compiled
// but not run.
func ExampleServe() {
	srvTLS, err := accelstream.LoadServerTLS("cert.pem", "key.pem")
	if err != nil {
		panic(err)
	}
	srv, err := accelstream.Serve(":7800", accelstream.ServerConfig{
		TLS:           srvTLS,
		AuthToken:     "s3cret",
		CheckpointDir: "/var/lib/streamd",
		Quotas:        accelstream.QuotaConfig{Default: accelstream.TenantQuota{MaxSessions: 4}},
	})
	if err != nil {
		panic(err)
	}
	defer srv.Shutdown(context.Background())

	cliTLS, err := accelstream.LoadClientTLS("cert.pem", "", false)
	if err != nil {
		panic(err)
	}
	c, err := accelstream.Dial(srv.Addr().String(), accelstream.SessionConfig{
		Engine:    accelstream.EngineSoftwareUniFlow,
		Cores:     8,
		Window:    1 << 16,
		AuthToken: "s3cret",
		Tenant:    "gold",
	}, accelstream.WithTLS(cliTLS), accelstream.WithDialTimeout(5*time.Second))
	if err != nil {
		panic(err)
	}
	defer c.Close()

	r, err := accelstream.DialSharded(accelstream.ShardConfig{
		Addrs:       []string{"shard-a:7800", "shard-b:7800"},
		Window:      1 << 16,
		TLS:         cliTLS,
		AuthToken:   "s3cret",
		Tenant:      "gold",
		ProbeKernel: accelstream.KernelScan,
		Redial:      accelstream.ShardRedialPolicy{Attempts: 5},
	})
	if err != nil {
		panic(err)
	}
	defer r.Close()
}
