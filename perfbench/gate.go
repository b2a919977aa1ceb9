package main

// The output-correctness gate. Every document and cell a run attempts is
// checked, and each failed check counts against the run:
//
//   - at the default seed, each report's SHA-256 must equal the digest
//     pinned in digests.json;
//   - on any seed, a document's report must equal the report it produced
//     the first time in the run, the trace-replayed banking report must
//     equal the synthetic one, and the distributed campaign report (and
//     each of its cells) must equal the in-process sweep report;
//   - in the traced run, the kernel's dispatch counters must add up to the
//     report's event count;
//   - an error or a panic in any call is recovered and counted.

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// defaultSeed is the workload seed the digests in digests.json belong to.
const defaultSeed = 1

//go:embed digests.json
var pinnedJSON []byte

// pinKey names one pinned report: workload, document and scale.
func pinKey(workload, doc string, sc scale) string {
	return workload + "/" + doc + "@" + sc.name
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func loadPins() (map[string]string, error) {
	pins := map[string]string{}
	if err := json.Unmarshal(pinnedJSON, &pins); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return pins, nil
}

// writePins merges the digests of refs into the pin file at path.
func writePins(path, workload string, sc scale, refs map[string][]byte) error {
	pins := map[string]string{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &pins); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	for id, b := range refs {
		pins[pinKey(workload, id, sc)] = digest(b)
	}
	data, err := json.MarshalIndent(pins, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// gate tallies attempts and failures against the reference reports.
type gate struct {
	attempted, failed int
	errs              []string
	// ref holds the expected report bytes per document id; bad marks
	// references that themselves failed a check, so every attempt of that
	// document fails too.
	ref map[string][]byte
	bad map[string]string
}

func newGate() *gate {
	return &gate{ref: map[string][]byte{}, bad: map[string]string{}}
}

const maxGateErrs = 20

func (g *gate) fail(format string, args ...any) {
	g.failed++
	if len(g.errs) < maxGateErrs {
		g.errs = append(g.errs, fmt.Sprintf(format, args...))
	}
}

// check counts one attempt of document id that produced out or err.
func (g *gate) check(id string, out []byte, err error) { g.checkAs(id, id, out, err) }

// checkAs counts one attempt, named label, that must reproduce the
// reference of document id.
func (g *gate) checkAs(label, id string, out []byte, err error) {
	g.attempted++
	switch {
	case err != nil:
		g.fail("%s: %v", label, err)
	case g.bad[id] != "":
		g.fail("%s: %s", label, g.bad[id])
	case !bytes.Equal(out, g.ref[id]):
		g.fail("%s: report bytes differ from the reference report of %s", label, id)
	}
}

// setReference records the expected bytes of a document and checks them
// against the pinned digest when the run uses the default seed.
func (g *gate) setReference(id string, out []byte, err error, pinned string, checkPin bool) {
	g.ref[id] = out
	switch {
	case err != nil:
		g.bad[id] = fmt.Sprintf("first run failed: %v", err)
	case checkPin && pinned == "":
		g.bad[id] = "no digest pinned for the default seed"
	case checkPin && digest(out) != pinned:
		g.bad[id] = fmt.Sprintf("report digest %s, pinned %s", digest(out), pinned)
	}
}

// requireSame marks document id bad unless its reference equals other's.
func (g *gate) requireSame(id, other, what string) {
	if g.bad[id] == "" && !bytes.Equal(g.ref[id], g.ref[other]) {
		g.bad[id] = what
	}
}

// badRefs lists the references that failed their own checks.
func (g *gate) badRefs() []string {
	var out []string
	for id, why := range g.bad {
		out = append(out, id+": "+why)
	}
	sort.Strings(out)
	return out
}

// attempt runs fn and turns a panic into an error, so a crashing call
// counts as one failure instead of ending the run.
func attempt(fn func() ([]byte, error)) (out []byte, err error) {
	defer func() {
		if p := recover(); p != nil {
			out, err = nil, fmt.Errorf("panic: %v", p)
		}
	}()
	return fn()
}
