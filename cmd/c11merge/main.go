// Command c11merge folds the partial artifacts of a sharded campaign back
// into the single-machine artifact. Shards partition the seed set
// deterministically (c11tester -shard i/N), and every partial summary
// carries its cells' mergeable state (campaign.CellState). c11merge decodes
// the partials, folds each cell's states, and renders the merged summary
// through the same code path a single-machine run uses, so the merge is
// exact: the merged summary is byte-identical — after Summary.Canonical,
// which strips machine-local timing — to the summary of an unsharded run of
// the same spec. It keeps the merged per-cell timing and phase histograms.
//
// Modes:
//
//	c11merge -o merged.json part0.json part1.json part2.json
//	    merge K partial summaries (refuses mismatched spec digests, duplicate
//	    or missing shard indices, build-provenance skew, and cell states that
//	    do not match the partial's spec; -force overrides the skew refusal
//	    only)
//	c11merge -events merged.jsonl ev0.jsonl ev1.jsonl ...
//	    merge event streams into one canonical stream (lifecycle events
//	    dropped, timestamps stripped, lines sorted); a single input
//	    canonicalizes it, so both sides of a comparison go through this
//	c11merge -captures merged.json manifest0.json manifest1.json ...
//	    merge flight-recorder capture manifests
//	c11merge -equal a.json b.json
//	    compare two summaries modulo Canonical; exit 0 when identical, 2 when
//	    they differ
//
// Exit codes: 0 success/identical, 1 structured error (corrupt input,
// validation refusal), 2 -equal mismatch.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"c11tester/internal/campaign"
	"c11tester/internal/obs"
	"c11tester/internal/safeio"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, out *os.File) int {
	fs := flag.NewFlagSet("c11merge", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		outPath  = fs.String("o", "", "write the merged summary JSON to this file (summaries mode)")
		events   = fs.String("events", "", "merge the positional JSONL event streams into one canonical stream at this path")
		captures = fs.String("captures", "", "merge the positional capture manifests into one manifest at this path")
		equal    = fs.Bool("equal", false, "compare two summaries modulo Summary.Canonical; exit 0 identical, 2 different")
		force    = fs.Bool("force", false, "merge summaries despite build-provenance skew (spec-digest mismatches still refuse)")
		quiet    = fs.Bool("q", false, "suppress the merged human-readable report")
	)
	if err := fs.Parse(args); err != nil {
		return 1
	}
	paths := fs.Args()
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "c11merge:", err)
		return 1
	}
	switch {
	case *equal:
		if len(paths) != 2 {
			return fail(fmt.Errorf("-equal takes exactly two summary files, got %d", len(paths)))
		}
		return runEqual(paths[0], paths[1], out)
	case *events != "":
		lines, bad, err := campaign.CanonicalEvents(paths...)
		if err != nil {
			return fail(err)
		}
		if bad > 0 {
			fmt.Fprintf(os.Stderr, "c11merge: skipped %d torn/corrupt line(s)\n", bad)
		}
		var buf bytes.Buffer
		for _, l := range lines {
			buf.WriteString(l)
			buf.WriteByte('\n')
		}
		if err := safeio.WriteFileAtomic(*events, buf.Bytes(), 0o644); err != nil {
			return fail(err)
		}
		if !*quiet {
			fmt.Fprintf(out, "wrote %s (%d canonical event(s) from %d stream(s))\n", *events, len(lines), len(paths))
		}
		return 0
	case *captures != "":
		var parts []*obs.Manifest
		for _, p := range paths {
			m, err := obs.ReadManifest(p)
			if err != nil {
				return fail(err)
			}
			parts = append(parts, m)
		}
		merged := campaign.MergeManifests(parts)
		if err := merged.WriteFile(*captures); err != nil {
			return fail(err)
		}
		if !*quiet {
			fmt.Fprintf(out, "wrote %s (%d capture(s) from %d manifest(s))\n", *captures, len(merged.Captures), len(paths))
		}
		return 0
	}

	if len(paths) == 0 {
		return fail(fmt.Errorf("no partial summaries given (usage: c11merge -o merged.json part0.json part1.json ...)"))
	}
	var parts []*campaign.Summary
	for _, p := range paths {
		s, err := campaign.LoadSummary(p)
		if err != nil {
			return fail(err)
		}
		parts = append(parts, s)
	}
	merged, err := campaign.MergeSummaries(parts, *force)
	if err != nil {
		return fail(err)
	}
	if !*quiet {
		fmt.Fprint(out, merged.String())
	}
	if *outPath != "" {
		if err := merged.WriteJSON(*outPath); err != nil {
			return fail(err)
		}
		if !*quiet {
			fmt.Fprintf(out, "\nwrote %s (merged from %d shard(s))\n", *outPath, len(parts))
		}
	}
	return 0
}

// runEqual compares two summaries modulo Canonical and reports the first
// divergence when they differ.
func runEqual(pathA, pathB string, out *os.File) int {
	a, err := campaign.LoadSummary(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "c11merge:", err)
		return 1
	}
	b, err := campaign.LoadSummary(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "c11merge:", err)
		return 1
	}
	ja, err := json.MarshalIndent(a.Canonical(), "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "c11merge:", err)
		return 1
	}
	jb, err := json.MarshalIndent(b.Canonical(), "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "c11merge:", err)
		return 1
	}
	if bytes.Equal(ja, jb) {
		fmt.Fprintf(out, "identical (modulo canonicalization): %s == %s\n", pathA, pathB)
		return 0
	}
	la, lb := bytes.Split(ja, []byte("\n")), bytes.Split(jb, []byte("\n"))
	for i := 0; i < len(la) && i < len(lb); i++ {
		if !bytes.Equal(la[i], lb[i]) {
			fmt.Fprintf(out, "DIFFERENT: first divergence at canonical line %d:\n  %s: %s\n  %s: %s\n",
				i+1, pathA, bytes.TrimSpace(la[i]), pathB, bytes.TrimSpace(lb[i]))
			return 2
		}
	}
	fmt.Fprintf(out, "DIFFERENT: %s (%d line(s)) vs %s (%d line(s)); one is a prefix of the other\n",
		pathA, len(la), pathB, len(lb))
	return 2
}
