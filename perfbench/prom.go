package main

// Per-layer service metrics from /metrics: the traced serve-mix run scrapes
// the server before and after the schedule and reports the deltas.

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// promSample is one exposition line: metric name, labels, value.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

type promSnapshot []promSample

func scrape(client *http.Client, base string) (promSnapshot, error) {
	_, body, err := do(context.Background(), client, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	return parseProm(string(body))
}

// parseProm parses the Prometheus text format the service writes.
func parseProm(text string) (promSnapshot, error) {
	var snap promSnapshot
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("bad metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("bad metrics line %q: %w", line, err)
		}
		s := promSample{name: line[:sp], labels: map[string]string{}, value: v}
		if i := strings.IndexByte(s.name, '{'); i >= 0 {
			for _, kv := range strings.Split(strings.TrimSuffix(s.name[i+1:], "}"), ",") {
				k, val, _ := strings.Cut(kv, "=")
				s.labels[k] = strings.Trim(val, `"`)
			}
			s.name = s.name[:i]
		}
		snap = append(snap, s)
	}
	return snap, sc.Err()
}

// sum adds the values of every series of name whose labels include match.
func (p promSnapshot) sum(name string, match map[string]string) float64 {
	total := 0.0
	for _, s := range p {
		if s.name == name && labelsMatch(s.labels, match) {
			total += s.value
		}
	}
	return total
}

// delta is after.sum - before.sum.
func delta(before, after promSnapshot, name string, match map[string]string) float64 {
	return after.sum(name, match) - before.sum(name, match)
}

// histQuantile estimates the q-quantile of the observations a histogram
// gained between two snapshots, interpolating linearly inside the bucket
// (the observations above the last finite bound report that bound).
func histQuantile(before, after promSnapshot, name string, match map[string]string, q float64) float64 {
	cum := map[float64]float64{}
	for _, snap := range []struct {
		p    promSnapshot
		sign float64
	}{{before, -1}, {after, 1}} {
		for _, s := range snap.p {
			if s.name != name+"_bucket" || !labelsMatch(s.labels, match) {
				continue
			}
			le := math.Inf(1)
			if s.labels["le"] != "+Inf" {
				le, _ = strconv.ParseFloat(s.labels["le"], 64)
			}
			cum[le] += snap.sign * s.value
		}
	}
	bounds := make([]float64, 0, len(cum))
	for b := range cum {
		bounds = append(bounds, b)
	}
	sort.Float64s(bounds)
	if len(bounds) == 0 || cum[bounds[len(bounds)-1]] == 0 {
		return 0
	}
	rank := q * cum[bounds[len(bounds)-1]]
	lo, below := 0.0, 0.0
	for _, b := range bounds {
		if cum[b] >= rank {
			if math.IsInf(b, 1) {
				return lo
			}
			if cum[b] == below {
				return b
			}
			return lo + (b-lo)*(rank-below)/(cum[b]-below)
		}
		lo, below = b, cum[b]
	}
	return lo
}

func labelsMatch(labels, match map[string]string) bool {
	for k, v := range match {
		if labels[k] != v {
			return false
		}
	}
	return true
}

// serveLayers reports the service's per-layer metrics as /metrics deltas.
func serveLayers(rep *report, before, after promSnapshot) {
	d := func(name string, match map[string]string) float64 { return delta(before, after, name, match) }
	sim := map[string]string{"route": "/v1/simulate"}
	rep.set("http.simulate_ms.p50", 1000*histQuantile(before, after, "serve_http_request_seconds", sim, 0.5))
	rep.set("http.simulate_ms.p99", 1000*histQuantile(before, after, "serve_http_request_seconds", sim, 0.99))
	hits, all := 0.0, 0.0
	for _, tier := range []string{"memory", "durable", "prefix", "coalesced", "miss"} {
		n := d("serve_cache_requests_total", map[string]string{"tier": tier})
		rep.set("serve.tier."+tier, n)
		all += n
		if tier != "miss" {
			hits += n
		}
	}
	rep.set("serve.hit_share", ratio(hits, all))
	rep.set("serve.queue_wait_ms.p99", 1000*histQuantile(before, after, "serve_job_queue_wait_seconds", nil, 0.99))
	rep.set("serve.executions", d("serve_executions_total", nil))
	rep.set("serve.job_retries", d("serve_job_retries_total", nil))
	rep.set("serve.prefix_epochs_saved", d("serve_prefix_epochs_saved_total", nil))
	rep.set("store.get_ms.sum", 1000*d("serve_store_get_seconds_sum", nil))
	rep.set("store.put_ms.sum", 1000*d("serve_store_put_seconds_sum", nil))
	rep.set("store.fsync_ms.sum", 1000*d("serve_store_fsync_seconds_sum", nil))
	rep.set("store.fsync_count", d("serve_store_fsync_seconds_count", nil))
	rep.set("journal.append_ms.sum", 1000*d("serve_journal_append_seconds_sum", nil))
	rep.set("journal.fsync_ms.sum", 1000*d("serve_journal_fsync_seconds_sum", nil))
	rep.set("journal.fsync_count", d("serve_journal_fsync_seconds_count", nil))
}

// setServeLayersBypassed reports 0 for the service layers on a workload
// that never goes through them.
func setServeLayersBypassed(rep *report) {
	for _, m := range perLayer {
		if strings.HasPrefix(m.name, "http.") || strings.HasPrefix(m.name, "serve.") && m.name != "serve.encode_s" ||
			strings.HasPrefix(m.name, "store.") || strings.HasPrefix(m.name, "journal.") || strings.HasPrefix(m.name, "harness.") {
			rep.set(m.name, 0)
		}
	}
}
