// Command bench is the repository benchmark. It runs one workload — a
// list of checks, repeated in passes — as a closed loop from a single
// client: the next check starts when the previous verdict returns. Every
// verdict is verified against testdata/expected.json, and the last line
// of standard output is one JSON object with the end-to-end metrics, or
// in a traced run (--trace 1) the per-layer metrics.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash bench/run.sh --workload fig7 --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload fig7 --seed 1 --seconds 20 --trace 0 --out results/a/fig7-1.json
//	bash bench/run.sh -compare results/a results/b
//
// README.md describes the workloads, the metrics and their bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its streams and exit code exposed: 0 when every
// verdict was correct, 1 when one was not (or compare found a
// regression), 2 on a usage or I/O error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "input seed (fuzz programs, fast-mode sampling)")
	seconds := fs.Int("seconds", 20, "measure for this many seconds; the pass in flight completes")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics and writing spans")
	traceOut := fs.String("trace-out", "", "span file of a traced run (default .bench_build/trace-<workload>-<seed>.json)")
	out := fs.String("out", "", "also write the full result record (environment, samples, counts) to this file")
	compare := fs.Bool("compare", false, "compare two directories of result records: -compare dirA dirB")
	refs := fs.Int("reference", 0, "time the reference workload this many times and print the durations in ns (how the benchmark samples it)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *refs > 0 {
		// The first round in a fresh process also grows the heap; it
		// read about a fifth slower than the rounds after it.
		reference()
		for range *refs {
			fmt.Fprintln(stdout, int64(reference()))
		}
		return 0
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare dirA dirB")
			return 2
		}
		return compareDirs(fs.Arg(0), fs.Arg(1), "BENCHMARK.json", stdout, stderr)
	}
	if fs.NArg() != 0 || *seconds < 0 || (*trace != 0 && *trace != 1) {
		fs.Usage()
		return 2
	}

	rec, tr, err := runWorkload(*name, *seed, *seconds, *trace == 1, fullLimits(), childProcess, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if tr != nil {
		path := *traceOut
		if path == "" {
			path = filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.json", *name, *seed))
		}
		if err := writeJSON(path, tr.file(rec.Env), false); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		fmt.Fprintf(stdout, "# spans written to %s\n", path)
	}
	if *out != "" {
		if err := writeJSON(*out, rec, true); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}
	line, err := json.Marshal(rec.result())
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !rec.Correct {
		return 1
	}
	return 0
}

// writeJSON writes v to path, creating its directory. Span files are
// written compact: they hold a row per execution.
func writeJSON(path string, v any, indent bool) (err error) {
	var data []byte
	if indent {
		data, err = json.MarshalIndent(v, "", " ")
	} else {
		data, err = json.Marshal(v)
	}
	if err != nil {
		return fmt.Errorf("encoding %s: %w", path, err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	if _, err := f.Write(append(data, '\n')); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}

// readJSON decodes the JSON file at path into v.
func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("decoding %s: %w", path, err)
	}
	return nil
}
