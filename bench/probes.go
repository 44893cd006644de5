package main

import (
	"bytes"
	"encoding/json"
	"os"
	"time"

	"nfvmcast/internal/core"
	"nfvmcast/internal/daemon"
	"nfvmcast/internal/graph"
	"nfvmcast/internal/obs"
	"nfvmcast/internal/sdn"
	"nfvmcast/internal/wal"
)

// probeRequests is how many of the stream's first requests each probe times.
const probeRequests = 200

// timeUs times f and returns microseconds.
func timeUs(f func()) float64 {
	t0 := time.Now()
	f()
	return float64(time.Since(t0).Nanoseconds()) / 1e3
}

// probes time single public functions of the lower layers on the
// workload's substrate and its first requests: what one Dijkstra, one KMB
// tree, one snapshot clone cost here, outside any admission.
func probes(e *env, m metricSet) error {
	nw, err := buildNetwork(e.w)
	if err != nil {
		return err
	}
	n := probeRequests
	if n > len(e.st.reqs) {
		n = len(e.st.reqs)
	}
	reqs := e.st.reqs[:n]

	g := nw.Graph()
	var ws graph.DijkstraWorkspace
	var sp graph.ShortestPaths
	var scratch graph.SteinerScratch
	var dijkstra, kmb, clone, alloc []float64
	for _, req := range reqs {
		var derr, kerr error
		dijkstra = append(dijkstra, timeUs(func() { derr = ws.DijkstraInto(g, req.Source, &sp) }))
		terminals := append([]graph.NodeID{req.Source}, req.Destinations...)
		kmb = append(kmb, timeUs(func() { _, kerr = graph.SteinerKMBScratch(g, terminals, &scratch) }))
		if derr != nil {
			return derr
		}
		if kerr != nil {
			return kerr
		}
	}
	m.set("graph.dijkstra_us", median(dijkstra))
	m.set("graph.kmb_us", median(kmb))

	// Solutions of the same requests feed the allocation, WAL and codec
	// probes; planning them is not timed (K=1 keeps it cheap).
	sols := make([]*core.Solution, len(reqs))
	for i, req := range reqs {
		if sols[i], err = core.ApproMulti(nw, req, core.Options{K: 1}); err != nil {
			return err
		}
	}
	view := &sdn.Network{}
	for i, req := range reqs {
		clone = append(clone, timeUs(func() { nw.CloneInto(view) }))
		bundle := core.AllocationFor(req, sols[i].Tree)
		var aerr, rerr error
		alloc = append(alloc, timeUs(func() {
			aerr = nw.Allocate(bundle)
			rerr = nw.Release(bundle)
		}))
		if aerr != nil {
			return aerr
		}
		if rerr != nil {
			return rerr
		}
	}
	m.set("sdn.clone_into_us", median(clone))
	m.set("sdn.allocate_release_us", median(alloc))

	if e.w.isDaemon() {
		if err := codecProbes(e, sols, m); err != nil {
			return err
		}
	}
	if e.w.Durable {
		return logProbes(e, sols, m)
	}
	return nil
}

// codecProbes time the daemon's JSON work on a submit: decoding the body
// into a request, and encoding the solution into the response.
func codecProbes(e *env, sols []*core.Solution, m metricSet) error {
	var decode, encode []float64
	var buf bytes.Buffer
	for i, sol := range sols {
		var derr, eerr error
		decode = append(decode, timeUs(func() {
			var body daemon.SubmitRequest
			dec := json.NewDecoder(bytes.NewReader(e.st.submit[i]))
			dec.DisallowUnknownFields()
			if derr = dec.Decode(&body); derr == nil {
				_, derr = body.Request.Decode()
			}
		}))
		encode = append(encode, timeUs(func() {
			buf.Reset()
			enc := json.NewEncoder(&buf)
			enc.SetIndent("", "  ")
			eerr = enc.Encode(daemon.SubmitResponse{ID: sol.Request.ID, Shard: "s0", Solution: wal.EncodeSolution(sol)})
		}))
		if derr != nil {
			return derr
		}
		if eerr != nil {
			return eerr
		}
	}
	m.set("daemon.decode_us", median(decode))
	m.set("daemon.encode_us", median(encode))
	return nil
}

// logProbes time Log.Append and Log.Barrier directly: this sandbox's disk,
// not a device's.
func logProbes(e *env, sols []*core.Solution, m metricSet) error {
	dir, err := e.walDir(levelFsync)
	if err != nil {
		return err
	}
	log, err := wal.Open(dir, wal.Options{SnapshotEvery: -1})
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	defer log.Close()
	var appendUs, barrierUs []float64
	for _, sol := range sols {
		rec := &wal.Record{
			Type: obs.Admitted, Request: sol.Request.ID,
			Req: wal.EncodeRequest(sol.Request), Sol: wal.EncodeSolution(sol),
		}
		var aerr, berr error
		appendUs = append(appendUs, timeUs(func() { _, aerr = log.Append(rec) }))
		barrierUs = append(barrierUs, timeUs(func() { berr = log.Barrier() }))
		if aerr != nil {
			return aerr
		}
		if berr != nil {
			return berr
		}
	}
	m.set("wal.append_us", median(appendUs))
	m.set("wal.barrier_us", median(barrierUs))
	return nil
}
