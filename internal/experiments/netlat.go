package experiments

import (
	"context"
	"fmt"
	"net"
	"time"

	"accelstream/internal/core"
	"accelstream/internal/server"
	"accelstream/internal/softjoin"
	"accelstream/internal/stream"
	"accelstream/internal/wire"
)

// startServers starts n stream-join servers with cfg, each serving an
// ephemeral loopback port, and returns them with their addresses. On error
// the servers already started are stopped.
func startServers(n int, cfg server.Config) ([]*server.Server, []string, error) {
	srvs := make([]*server.Server, 0, n)
	addrs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		srv, err := server.New(cfg)
		if err != nil {
			stopServers(srvs)
			return nil, nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			stopServers(srvs)
			return nil, nil, err
		}
		go srv.Serve(ln)
		srvs = append(srvs, srv)
		addrs = append(addrs, ln.Addr().String())
	}
	return srvs, addrs, nil
}

// stopServers drains each server with a bounded budget. Stopping a server
// twice is harmless.
func stopServers(srvs []*server.Server) {
	for _, srv := range srvs {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		srv.Shutdown(ctx)
		cancel()
	}
}

// batchSender is a server session or a shard router.
type batchSender interface {
	SendBatch([]core.Input) error
}

// sendAll streams inputs in batch-sized frames.
func sendAll(c batchSender, inputs []core.Input, batch int) error {
	for len(inputs) > 0 {
		n := batch
		if n > len(inputs) {
			n = len(inputs)
		}
		if err := c.SendBatch(inputs[:n]); err != nil {
			return err
		}
		inputs = inputs[n:]
	}
	return nil
}

// probeDriver abstracts "an engine I can push batches into and observe
// probe matches from", letting the same measurement loop time the
// in-process engine and the network-attached session identically.
type probeDriver interface {
	push(batch []core.Input) error
	// matches delivers the R-side key of every probe result seen.
	matches() <-chan uint32
	close() error
}

// inprocDriver drives a softjoin.UniFlow directly.
type inprocDriver struct {
	eng  *softjoin.UniFlow
	stop func() error
	hits chan uint32
}

func newInprocDriver(cores, window int) (*inprocDriver, error) {
	d := &inprocDriver{hits: make(chan uint32, 256)}
	var err error
	d.eng, d.stop, err = startUniFlow(softjoin.Config{NumCores: cores, WindowSize: window}, nil, nil, func(r stream.Result) {
		if r.R.Key >= probeKeyBase {
			d.hits <- r.R.Key
		}
	})
	if err != nil {
		return nil, err
	}
	return d, nil
}

func (d *inprocDriver) push(batch []core.Input) error {
	d.eng.PushBatch(batch)
	return nil
}

func (d *inprocDriver) matches() <-chan uint32 { return d.hits }

func (d *inprocDriver) close() error { return d.stop() }

// netDriver drives the same engine configuration behind a loopback TCP
// session of the stream-join service.
type netDriver struct {
	client *server.Client
	hits   chan uint32
	done   chan struct{}
}

func newNetDriver(addr string, cores, window int) (*netDriver, error) {
	c, err := server.Dial(addr, wire.OpenConfig{Engine: wire.EngineSoftUni, Cores: cores, Window: window})
	if err != nil {
		return nil, err
	}
	d := &netDriver{client: c, hits: make(chan uint32, 256), done: make(chan struct{})}
	go func() {
		defer close(d.done)
		for r := range c.Results() {
			if r.R.Key >= probeKeyBase {
				d.hits <- r.R.Key
			}
		}
	}()
	return d, nil
}

func (d *netDriver) push(batch []core.Input) error { return d.client.SendBatch(batch) }

func (d *netDriver) matches() <-chan uint32 { return d.hits }

func (d *netDriver) close() error {
	_, err := d.client.Close()
	<-d.done
	return err
}

// probeLatency measures mean end-to-end probe latency at one batch size:
// for each probe, an S tuple with a unique probe key is planted, then an
// R probe rides the tail of a batchSize-tuple batch; the clock runs from
// the push of the probe batch to the arrival of its result.
func probeLatency(d probeDriver, batchSize, probes int) (time.Duration, error) {
	var filler uint32
	fillerInput := func(side stream.Side) core.Input {
		filler++
		key := filler | 0x80000000 // outside the probe range, R/S-disjoint
		if side == stream.SideS {
			key = filler &^ 0xC0000000
		}
		return core.Input{Side: side, Tuple: stream.Tuple{Key: key}}
	}
	var sum time.Duration
	for i := 0; i < probes; i++ {
		probeKey := uint32(probeKeyBase + i)
		if err := d.push([]core.Input{{Side: stream.SideS, Tuple: stream.Tuple{Key: probeKey}}}); err != nil {
			return 0, err
		}
		batch := make([]core.Input, 0, batchSize)
		for j := 0; j < batchSize-1; j++ {
			batch = append(batch, fillerInput(stream.Side(1+j%2)))
		}
		batch = append(batch, core.Input{Side: stream.SideR, Tuple: stream.Tuple{Key: probeKey}})
		t0 := time.Now()
		if err := d.push(batch); err != nil {
			return 0, err
		}
		deadline := time.After(30 * time.Second)
		for {
			select {
			case k := <-d.matches():
				if k == probeKey {
					sum += time.Since(t0)
				} else {
					continue
				}
			case <-deadline:
				return 0, fmt.Errorf("experiments: probe %d never produced a result", i)
			}
			break
		}
	}
	return sum / time.Duration(probes), nil
}

// NetLatency is an extension experiment: the data-path cost of serving
// the join over a socket. It times the same uni-flow software engine
// twice — in-process and behind a loopback TCP session of the
// stream-join service — across batch sizes, echoing the paper's Fig. 4
// observation that a co-processor deployment pays a host<->accelerator
// transfer cost on the active data path that amortizes with batching.
func NetLatency(opt Options) (Figure, error) {
	fig := Figure{
		ID:     "netlat",
		Title:  "Extension: in-process vs network-attached probe latency (uni-flow software engine)",
		XLabel: "batch size (tuples per frame)",
		YLabel: "mean probe latency (µs)",
	}
	const (
		cores  = 2
		window = 1 << 10
	)
	batchSizes := []int{1, 8, 64, 256}
	probes := 16
	if opt.Quick {
		batchSizes = []int{1, 64}
		probes = 6
	}

	srvs, addrs, err := startServers(1, server.Config{})
	if err != nil {
		return Figure{}, err
	}
	defer stopServers(srvs)

	inproc := Series{Label: "in-process"}
	network := Series{Label: "network (loopback TCP)"}
	for _, b := range batchSizes {
		d, err := newInprocDriver(cores, window)
		if err != nil {
			return Figure{}, err
		}
		lat, err := probeLatency(d, b, probes)
		d.close()
		if err != nil {
			return Figure{}, err
		}
		inproc.Points = append(inproc.Points, Point{X: float64(b), Y: float64(lat.Microseconds())})

		nd, err := newNetDriver(addrs[0], cores, window)
		if err != nil {
			return Figure{}, err
		}
		nlat, err := probeLatency(nd, b, probes)
		nd.close()
		if err != nil {
			return Figure{}, err
		}
		network.Points = append(network.Points, Point{X: float64(b), Y: float64(nlat.Microseconds())})
	}
	fig.Series = append(fig.Series, inproc, network)
	fig.Notes = append(fig.Notes,
		"network-attached latency adds the wire data path (framing, loopback TCP, credit return) to the same engine",
		"the gap is the software analogue of the paper's Fig. 4 co-processor data-path cost; batching amortizes it")
	return fig, nil
}
