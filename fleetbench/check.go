package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"dataproxy/internal/arch"
	"dataproxy/internal/core"
	"dataproxy/internal/perf"
	"dataproxy/internal/proxy"
	"dataproxy/internal/sim"
)

// canonicalMetrics decodes a served metric vector, checks it with
// perf.Metrics.Validate and returns its canonical (compact) JSON bytes —
// the exact bytes perf.Metrics.MarshalJSON produces for the same values.
func canonicalMetrics(raw json.RawMessage) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return nil, fmt.Errorf("metrics do not decode: %w", err)
	}
	var m perf.Metrics
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		return nil, fmt.Errorf("metrics do not decode: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// compareRecomputed re-evaluates settings of one proxy in-process with
// core.RunBatch on sim.SingleNode(profile, 0) — the servers' own cluster —
// and requires each served answer to match byte for byte.
func compareRecomputed(workload, archName string, settings []map[string]float64, got [][]byte) []string {
	b, err := proxy.ForWorkload(workload)
	if err != nil {
		return []string{err.Error()}
	}
	pool, err := newPool(archName)
	if err != nil {
		return []string{err.Error()}
	}
	ss := make([]core.Setting, len(settings))
	for i, s := range settings {
		ss[i] = core.Setting(s)
	}
	reps, err := core.RunBatch(pool, b, ss)
	if err != nil {
		return []string{fmt.Sprintf("recomputing %s on %s: %v", workload, archName, err)}
	}
	var out []string
	for i, rep := range reps {
		want, err := rep.Metrics.MarshalJSON()
		if err != nil {
			return []string{err.Error()}
		}
		if !bytes.Equal(want, got[i]) {
			out = append(out, fmt.Sprintf("%s on %s %v: served %s, recomputed %s", workload, archName, settings[i], got[i], want))
		}
	}
	return out
}

// newPool returns a cluster pool over the single-node cluster the servers
// run every proxy on.
func newPool(archName string) (*sim.ClusterPool, error) {
	profile, ok := arch.Profiles()[archName]
	if !ok {
		return nil, fmt.Errorf("unknown architecture %q", archName)
	}
	proto, err := sim.NewCluster(sim.SingleNode(profile, 0))
	if err != nil {
		return nil, err
	}
	return sim.NewClusterPool(proto), nil
}

// digest hashes key → bytes entries in key order.  A missing answer
// (nil bytes) hashes differently from every real one.
func digest(entries map[string][]byte) string {
	keys := make([]string, 0, len(entries))
	for k := range entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s\x00%d\x00", k, len(entries[k]))
		h.Write(entries[k])
	}
	return fmt.Sprintf("sha256:%s (%d entries)", hex.EncodeToString(h.Sum(nil))[:16], len(keys))
}

// plantWrong returns a copy of a canonical metric vector with one digit
// changed: still valid JSON and a valid vector, but a wrong answer.
func plantWrong(m []byte) []byte {
	out := append([]byte(nil), m...)
	for i := len(out) - 1; i >= 0; i-- {
		if out[i] >= '1' && out[i] <= '8' {
			out[i]++
			return out
		}
	}
	return append(out, ' ')
}
