// Command perfbench is NCExplorer's end-to-end benchmark. It sets up one
// workload in-process — a single ncserver node (explore), an ncrouter
// over two shards (fanout), or an ingesting node with watchlists
// (feed) — serves it over real loopback sockets, drives it with at
// most two senders, checks every answer, and prints the metrics as one
// JSON line:
//
//	bash perfbench/run.sh --workload explore --seed 1 --seconds 10 --trace 0
//
// With -trace 1 the run measures an untraced pass and then a traced
// pass that replays sampled requests at each layer boundary, and
// prints per-layer metrics instead. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"ncexplorer"
)

// worldSeed fixes the synthetic world (ncserver's default seed). The
// run's -seed draws everything the system is sent — the query stream,
// the ingested batches, the watchlists — over that one world. Letting
// -seed pick the world too made the world itself the largest source of
// run-to-run spread (explore's p50 spread over five seeds was 17% with
// the world varying, 7% with it fixed), hiding the changes a benchmark
// exists to see.
const worldSeed = 42

// config is one benchmark invocation. The command line sets the
// workload, seed, window, trace mode and work directory; runs use the
// default scale, three set-ups and a 3 s warm-up, which the tests
// shrink.
type config struct {
	workload string
	seed     uint64
	window   time.Duration
	trace    bool
	scale    string
	setups   int
	warmup   time.Duration
	workdir  string
	faults   faults
}

// faults injects errors into the benchmark's own checks; the tests use
// them to prove that a wrong answer counts as a failed operation.
type faults struct {
	wrongBody bool // corrupt one query response body
	dropAlert bool // discard one alert read off the SSE stream
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of the benchmark's output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: explore, fanout or feed")
	seed := fs.Uint64("seed", 1, "world and workload seed (0 is not allowed)")
	seconds := fs.Float64("seconds", 10, "measured window per pass, in seconds")
	trace := fs.Int("trace", 0, "1: add a traced pass and print per-layer metrics")
	workdir := fs.String("workdir", ".bench_build", "directory for data dirs and span files")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	cfg := config{
		workload: *workload, seed: *seed, window: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, scale: "default", setups: 3, warmup: 3 * time.Second, workdir: *workdir,
	}
	if _, ok := workloads[cfg.workload]; !ok {
		return cfg, fmt.Errorf("unknown -workload %q (want explore, fanout or feed)", cfg.workload)
	}
	if cfg.seed == 0 || cfg.window <= 0 || (*trace != 0 && *trace != 1) {
		return cfg, errors.New("want -seed > 0, -seconds > 0 and -trace 0 or 1")
	}
	return cfg, nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	rep, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// system is one workload's running system under test.
type system interface {
	// pass drives one pass of the workload's load: warm-up, then the
	// measured window. A traced pass also replays sampled requests.
	pass(p *pass) (*passOut, error)
	// verify checks every recorded answer against a reference built
	// after the timed windows, counting mismatches as failures, and
	// records workload properties. It may tear the system down.
	verify(r *result) error
	close() // idempotent
}

// workloads maps a workload name to its set-up: build the system,
// serve it, and return once it has answered its first request.
var workloads = map[string]func(cfg *config, wl *workload, r *result) (system, error){
	"explore": newExplore,
	"fanout":  newFanout,
	"feed":    newFeed,
}

// run executes one benchmark invocation and returns its report; the
// workload-properties line goes to out first.
func run(cfg config, out io.Writer) (*report, error) {
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(cfg.workdir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	cfg.workdir = tmp

	world, err := ncexplorer.NewQueryWorld(cfg.scale, worldSeed)
	if err != nil {
		return nil, err
	}
	wl := generate(world.Graph(), cfg.seed, seqLen)

	r := newResult()
	var sys system
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		if sys != nil {
			sys.close()
			sys = nil
		}
		runtime.GC()
		debug.FreeOSMemory()
		start := time.Now()
		sys, err = workloads[cfg.workload](&cfg, wl, r)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer sys.close() // idempotent: verify closes it first

	var tr *tracer
	plain, err := sys.pass(&pass{cfg: &cfg, res: r})
	if err != nil {
		return nil, err
	}
	var traced *passOut
	if cfg.trace {
		tr = newTracer()
		if traced, err = sys.pass(&pass{cfg: &cfg, res: r, tr: tr}); err != nil {
			return nil, err
		}
	}
	rss := peakRSSMB()
	if err := sys.verify(r); err != nil {
		return nil, err
	}

	props := map[string]any{"workload": cfg.workload, "seed": cfg.seed, "warmup_s": cfg.warmup.Seconds(),
		"window_s": cfg.window.Seconds(), "setups_s": setups, "properties": r.props}
	if line, err := json.Marshal(props); err == nil {
		fmt.Fprintln(out, string(line))
	}

	rep := &report{Attempted: r.attempted.Load(), Failed: r.failed.Load()}
	rep.Correct = rep.Failed == 0
	if rep.Attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	if !cfg.trace {
		rep.Metrics = endToEnd(plain, median(setups), rss)
		return rep, nil
	}
	spanFile := filepath.Join(filepath.Dir(tmp), fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := tr.write(spanFile); err != nil {
		return nil, err
	}
	rep.Metrics = perLayer(plain, traced, tr, r)
	return rep, nil
}

// endToEnd assembles the metrics a user of the system sees.
func endToEnd(p *passOut, setup, rss float64) map[string]metric {
	rps := p.rps
	if rps == 0 {
		rps = sliceRate(p.query, p.window)
	}
	return map[string]metric{
		"setup_s":      {setup, "s"},
		"query_p50_us": {sliceQuantile(p.query, p.window, 0.50), "us"},
		"query_rps":    {rps, "req/s"},
		"peak_rss_mb":  {rss, "MB"},
	}
}
