package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"dataproxy/pkg/client"
)

// fleetSize is the number of replicas behind the router.
const fleetSize = 2

// replicaName is replica i's shard name on the router's ring.
func replicaName(i int) string { return fmt.Sprintf("s%d", i) }

// clockTicks is the Linux USER_HZ that /proc/<pid>/stat times are counted in.
const clockTicks = 100

// procFleet is a proxyrouter in front of fleetSize proxyd processes on loopback.
type procFleet struct {
	procs    []*exec.Cmd
	router   *client.Client
	replicas []*client.Client
	stopped  bool
}

// fleetSample is a point-in-time reading of the fleet's serving counters,
// summed over the processes; the timed run reports deltas.
type fleetSample struct {
	executed    float64 // simulations performed (proxyd_run_executed_total)
	coalesced   float64 // runs answered from the result cache
	shed        float64 // runs shed by a replica or found no backend at the router
	lanesSum    float64 // coalesced-sweep lane histogram sum and count
	lanesCount  float64
	waitSeconds float64 // collection-window wait histogram sum and count
	waitCount   float64
}

// startFleet boots the replicas and the router from the binaries in bin and
// waits until the router reports every replica healthy.  Gossip is off: it
// is background traffic no request waits on.
func startFleet(ctx context.Context, bin, logDir string) (*procFleet, error) {
	ports, err := freePorts(fleetSize + 1)
	if err != nil {
		return nil, err
	}
	hc := &http.Client{Timeout: 2 * time.Minute, Transport: &http.Transport{MaxIdleConnsPerHost: 16}}
	f := &procFleet{}
	var backends []string
	for i := 0; i < fleetSize; i++ {
		name := replicaName(i)
		addr := fmt.Sprintf("127.0.0.1:%d", ports[i])
		if err := f.spawn(filepath.Join(bin, "proxyd"), filepath.Join(logDir, name+".log"), nil, "-addr", addr, "-name", name); err != nil {
			f.stop()
			return nil, err
		}
		backends = append(backends, name+"=http://"+addr)
		f.replicas = append(f.replicas, client.New("http://"+addr, client.WithHTTPClient(hc), client.WithRetries(0)))
	}
	routerAddr := fmt.Sprintf("127.0.0.1:%d", ports[fleetSize])
	// The router only forwards: one P keeps its idle Ps from spinning for
	// work against the replicas on a small host.
	if err := f.spawn(filepath.Join(bin, "proxyrouter"), filepath.Join(logDir, "router.log"), []string{"GOMAXPROCS=1"},
		"-addr", routerAddr, "-backends", strings.Join(backends, ","), "-probe-interval", "100ms"); err != nil {
		f.stop()
		return nil, err
	}
	f.router = client.New("http://"+routerAddr, client.WithHTTPClient(hc), client.WithRetries(0))
	if err := waitHealthy(ctx, f.router, f.replicas...); err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

// spawn starts one server process with its output in logPath.
func (f *procFleet) spawn(path, logPath string, env []string, args ...string) error {
	logFile, err := os.Create(logPath)
	if err != nil {
		return err
	}
	defer logFile.Close()
	cmd := exec.Command(path, args...)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	cmd.Env = append(os.Environ(), env...)
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("starting %s: %w", filepath.Base(path), err)
	}
	f.procs = append(f.procs, cmd)
	return nil
}

// waitHealthy polls every replica's /readyz and then the router's cluster
// view until it reports every replica healthy, so no request of the timed
// run fails over to a ring successor.
func waitHealthy(ctx context.Context, router *client.Client, members ...*client.Client) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		for len(members) > 0 && members[0].Ready(ctx) == nil {
			members = members[1:]
		}
		if cl, err := router.Cluster(ctx); err == nil && len(members) == 0 && len(cl.Peers) == fleetSize {
			healthy := 0
			for _, p := range cl.Peers {
				if p.Healthy {
					healthy++
				}
			}
			if healthy == fleetSize {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet did not become healthy within 30s (see the logs directory)")
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// stop kills every server process and waits for it to exit.  It may be
// called more than once.
func (f *procFleet) stop() {
	if f == nil || f.stopped {
		return
	}
	f.stopped = true
	for _, p := range f.procs {
		_ = p.Process.Kill() // already exited is fine; Wait reaps it either way
		_ = p.Wait()
	}
}

// cpuSeconds sums utime+stime of the server processes.
func (f *procFleet) cpuSeconds() (float64, error) {
	total := 0.0
	for _, p := range f.procs {
		cpu, err := procCPUSeconds(p.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += cpu
	}
	return total, nil
}

// sample reads the fleet's serving counters.
func (f *procFleet) sample(ctx context.Context) (fleetSample, error) {
	var s fleetSample
	for _, r := range f.replicas {
		text, err := r.MetricsText(ctx)
		if err != nil {
			return s, fmt.Errorf("reading replica metrics: %w", err)
		}
		for name, dst := range map[string]*float64{
			"proxyd_run_executed_total":                 &s.executed,
			"proxyd_run_coalesced_total":                &s.coalesced,
			"proxyd_run_shed_total":                     &s.shed,
			"proxyd_coalesce_lanes_per_sweep_sum":       &s.lanesSum,
			"proxyd_coalesce_lanes_per_sweep_count":     &s.lanesCount,
			"proxyd_coalesce_window_wait_seconds_sum":   &s.waitSeconds,
			"proxyd_coalesce_window_wait_seconds_count": &s.waitCount,
		} {
			v, _ := client.ParseMetric(text, name)
			*dst += v
		}
	}
	text, err := f.router.MetricsText(ctx)
	if err != nil {
		return s, fmt.Errorf("reading router metrics: %w", err)
	}
	v, _ := client.ParseMetric(text, "proxyrouter_unavailable_total")
	s.shed += v
	return s, nil
}

// peakRSSMB sums the peak resident set size (VmHWM) of the server
// processes, in MB.
func (f *procFleet) peakRSSMB() float64 {
	total := 0.0
	for _, p := range f.procs {
		data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.Process.Pid))
		if err != nil {
			continue
		}
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
				total += kb / 1024
			}
		}
	}
	return total
}

// procCPUSeconds reads utime+stime of a process from /proc/<pid>/stat.
func procCPUSeconds(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3 (state);
	// utime and stime are fields 14 and 15.
	s := string(data)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseFloat(fields[11], 64)
	stime, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	return (utime + stime) / clockTicks, nil
}

// freePorts reserves n distinct loopback ports by binding them together,
// then releases them for the servers to take.
func freePorts(n int) ([]int, error) {
	var ports []int
	var ls []net.Listener
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ls = append(ls, l)
		ports = append(ports, l.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}
