package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"spio"
)

// serve-gateway: the read dataset with the lossless codec, split three
// ways and served by three in-process spiods behind one gateway over
// unix sockets, all with default configuration. Each client dials the
// gateway with default options.
var gatewayWorkload = workload{
	name:    "serve-gateway",
	primary: "box",
	clients: readClients,
	setup:   setupGateway,
}

const gatewayShards = 3

// countingListener counts every byte its connections carry, both ways.
type countingListener struct {
	net.Listener
	n *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.n}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	k, err := c.Conn.Read(p)
	c.n.Add(int64(k))
	return k, err
}

func (c countingConn) Write(p []byte) (int, error) {
	k, err := c.Conn.Write(p)
	c.n.Add(int64(k))
	return k, err
}

// remoteTarget gives every client its own connection to the gateway.
type remoteTarget struct{ rds []*spio.RemoteDataset }

func (t remoteTarget) box(c *client, q spio.Box) (*spio.Buffer, spio.ReadStats, error) {
	return t.rds[c.id].QueryBox(q, spio.QueryOptions{Readers: readerCount})
}

func (t remoteTarget) knn(c *client, p spio.Vec3, k int) (*spio.Buffer, []float64, spio.ReadStats, error) {
	return t.rds[c.id].KNN(p, k)
}

func (t remoteTarget) stream(c *client, q spio.Box) (levelStream, error) {
	st, err := t.rds[c.id].ProgressiveBox(q, 0, readerCount)
	if err != nil {
		return nil, err
	}
	return st, nil
}

// gatewayStats is the part of the gateway's stats answer the layer
// breakdown reads.
type gatewayStats struct {
	Requests     int64 `json:"requests"`
	Partials     int64 `json:"partials"`
	Fanout       int64 `json:"fanout"`
	ShardErrors  int64 `json:"shard_errors"`
	BreakerSkips int64 `json:"breaker_skips"`
}

// serveCounters is one snapshot of every counter the serving tier
// exposes, plus the bytes on the benchmark's own listeners.
type serveCounters struct {
	shards    []spio.ServerMetrics
	gw        gatewayStats
	shardWire int64 // gateway <-> spiod
	frontWire int64 // client <-> gateway
}

type gatewayInst struct {
	readMix
	src       string
	servers   []*spio.Server
	gw        *spio.Gateway
	stats     *spio.ServerClient
	rds       []*spio.RemoteDataset
	served    sync.WaitGroup
	serveErrs chan error
	shardWire atomic.Int64
	frontWire atomic.Int64
	dialMs    []float64
}

// socketAddr names a unix socket under dir by its path relative to the
// working directory, which keeps it within the socket path limit.
func socketAddr(dir, name string) (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(wd, filepath.Join(dir, name))
	if err != nil {
		return "", err
	}
	return "unix:" + rel, nil
}

func (g *gatewayInst) listen(dir, name string, n *atomic.Int64, serve func(net.Listener) error) (string, error) {
	addr, err := socketAddr(dir, name)
	if err != nil {
		return "", err
	}
	l, err := net.Listen("unix", addr[len("unix:"):])
	if err != nil {
		return "", err
	}
	g.served.Add(1)
	go func() {
		defer g.served.Done()
		if err := serve(countingListener{l, n}); err != nil {
			g.serveErrs <- fmt.Errorf("%s: %w", name, err)
		}
	}()
	return addr, nil
}

func setupGateway(e env) (instance, error) {
	src := filepath.Join(e.dataDir, "dataset")
	locals, err := writeReadDataset(src, e.seed, spio.LosslessCodec)
	if err != nil {
		return nil, err
	}
	// One slot for each serving goroutine's error: the shards and the gateway.
	g := &gatewayInst{src: src, serveErrs: make(chan error, gatewayShards+1)}
	g.readMix = readMix{
		truth:   newTruth(locals),
		stride:  int64(spio.UintahSchema().Stride()),
		boxSpan: "server.client_box",
		knnSpan: "server.client_knn",
	}
	dirs := make([]string, gatewayShards)
	for i := range dirs {
		dirs[i] = filepath.Join(e.dataDir, fmt.Sprintf("shard%d", i))
	}
	if err := spio.SplitDataset(src, dirs); err != nil {
		return nil, err
	}
	var specs []spio.ShardSpec
	for i, dir := range dirs {
		srv := spio.NewServer(spio.ServerConfig{})
		g.servers = append(g.servers, srv)
		if err := srv.Mount("shard", dir); err != nil {
			g.close()
			return nil, err
		}
		addr, err := g.listen(e.dataDir, fmt.Sprintf("s%d.sock", i), &g.shardWire, srv.Serve)
		if err != nil {
			g.close()
			return nil, err
		}
		specs = append(specs, spio.ShardSpec{Ref: "shard", Addrs: []string{addr}})
	}
	g.gw = spio.NewGateway(spio.GatewayConfig{})
	if err := g.gw.Mount("sim", specs); err != nil {
		g.close()
		return nil, err
	}
	addr, err := g.listen(e.dataDir, "gw.sock", &g.frontWire, g.gw.Serve)
	if err != nil {
		g.close()
		return nil, err
	}
	if g.stats, err = spio.DialServer(addr); err != nil {
		g.close()
		return nil, err
	}
	for i := 0; i < readClients; i++ {
		t0 := time.Now()
		rd, err := spio.Dial(addr, "sim")
		if err != nil {
			g.close()
			return nil, err
		}
		g.dialMs = append(g.dialMs, float64(time.Since(t0))/1e6)
		g.rds = append(g.rds, rd)
	}
	g.target = remoteTarget{g.rds}
	return g, nil
}

// verify checks every answer against the input and, once, that the
// unsplit dataset the shards were cut from holds exactly the input, so
// a matching answer is also the answer a local read of it gives.
func (g *gatewayInst) verify(recs []*opRecord) error {
	if err := g.readMix.verify(recs); err != nil {
		return err
	}
	ds, err := spio.Open(g.src)
	if err != nil {
		return err
	}
	defer ds.Close()
	all, _, err := ds.ReadAll(spio.QueryOptions{})
	if err != nil {
		return err
	}
	if got := fpOf(all, nil); got != g.truth.all {
		return fmt.Errorf("unsplit dataset holds %+v, input was %+v", got, g.truth.all)
	}
	return nil
}

func (g *gatewayInst) snapshot() any {
	s := serveCounters{shardWire: g.shardWire.Load(), frontWire: g.frontWire.Load()}
	for _, srv := range g.servers {
		s.shards = append(s.shards, srv.Snapshot())
	}
	if raw, err := g.stats.Stats(); err == nil {
		_ = json.Unmarshal(raw, &s.gw) // a garbled answer leaves the gateway rows at zero
	}
	return s
}

func (g *gatewayInst) report(*window, map[string]float64) {}

func (g *gatewayInst) layers(w *window, before, after any) map[string]float64 {
	m := g.readLayers(w)
	b, a := before.(serveCounters), after.(serveCounters)
	var req, wait, svc, bHit, bMiss, dHit, dMiss, disk, files, errs, over float64
	for i := range a.shards {
		x, y := b.shards[i], a.shards[i]
		req += float64(y.Requests - x.Requests)
		wait += float64(y.QueueWaitNs - x.QueueWaitNs)
		svc += float64(y.ServiceNs - x.ServiceNs)
		bHit += float64(y.BlockCache.Hits - x.BlockCache.Hits)
		bMiss += float64(y.BlockCache.Misses - x.BlockCache.Misses)
		dHit += float64(y.DecodedCache.Hits - x.DecodedCache.Hits)
		dMiss += float64(y.DecodedCache.Misses - x.DecodedCache.Misses)
		disk += float64(y.BlockCache.BytesFromDisk - x.BlockCache.BytesFromDisk)
		files += float64(y.FilesOpened - x.FilesOpened)
		errs += float64(y.Errors - x.Errors)
		over += float64(y.Overloaded - x.Overloaded)
	}
	var user float64
	for _, r := range w.recs {
		user += float64(r.bytes)
	}
	ops := float64(max(len(w.recs), 1))
	gwReq := float64(max(a.gw.Requests-b.gw.Requests, 1))
	req = max(req, 1)
	user = max(user, 1)
	m["server.dial_ms"] = median(g.dialMs)
	m["server.queue_wait_ms_per_req"] = wait / req / 1e6
	m["server.service_ms_per_req"] = svc / req / 1e6
	m["server.block_cache_hit_ratio"] = bHit / max(bHit+bMiss, 1)
	m["server.decoded_cache_hit_ratio"] = dHit / max(dHit+dMiss, 1)
	m["server.disk_mb_per_op"] = disk / 1e6 / ops
	m["server.files_opened_per_req"] = files / req
	m["server.errors"] = errs
	m["server.overloaded"] = over
	m["server.wire_bytes_per_user_byte"] = float64(a.shardWire-b.shardWire) / user
	m["gateway.front_wire_bytes_per_user_byte"] = float64(a.frontWire-b.frontWire) / user
	m["gateway.fanout_per_req"] = float64(a.gw.Fanout-b.gw.Fanout) / gwReq
	m["gateway.partial_ratio"] = float64(a.gw.Partials-b.gw.Partials) / gwReq
	m["gateway.shard_errors"] = float64(a.gw.ShardErrors - b.gw.ShardErrors)
	m["gateway.breaker_skips"] = float64(a.gw.BreakerSkips - b.gw.BreakerSkips)
	return m
}

// close tears the tier down front to back and waits for every server
// goroutine to return.
func (g *gatewayInst) close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	for _, rd := range g.rds {
		keep(rd.Close())
	}
	if g.stats != nil {
		keep(g.stats.Close())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if g.gw != nil {
		keep(g.gw.Shutdown(ctx))
	}
	for _, srv := range g.servers {
		keep(srv.Shutdown(ctx))
	}
	g.served.Wait()
	close(g.serveErrs)
	for err := range g.serveErrs {
		keep(err)
	}
	return first
}
