package scenario

// The common document envelope: the front half every scenario document
// shares. Before this type existed each adapter privately re-declared the
// same header fields ("kind", "seed", "parallel", a workload block, a
// failures block) in its own schema struct; Common promotes them into one
// typed header that adapters embed, so the registry, the sweep expander, and
// the distributed coordinator all parse the same five fields through the
// same type. Sections that ride the header — notably "failures" — are
// therefore available to every kind (and to every JSON-pointer sweep axis)
// without per-adapter parsing code.

import (
	"bytes"
	"encoding/json"
	"fmt"

	"mcs/internal/trace"
)

// WorkloadJSON is the shared "workload" block of a scenario document: the
// synthetic-generation vocabulary (jobs/pattern/shape, resolved through
// internal/workload) together with the trace reference (trace/format,
// resolved through the trace format registry). Kinds that replay traces but
// synthesize their own arrival process (faas, gaming, banking) use only the
// embedded Ref; the datacenter family uses all of it.
type WorkloadJSON struct {
	Jobs    int    `json:"jobs"`
	Pattern string `json:"pattern"`
	Shape   string `json:"shape"`
	trace.Ref
}

// Common is the typed header of every scenario document. Adapters embed it
// at the top of their ScenarioJSON instead of re-declaring the fields; the
// registry front half (ParseCommon / New / RunDocument), the sweep
// expander, and internal/dist all route through it.
type Common struct {
	// Kind selects the registered scenario; empty means DefaultKind for
	// backward compatibility with pre-registry documents.
	Kind string `json:"kind"`
	// Seed drives the kernel and every document-seeded generator.
	Seed int64 `json:"seed"`
	// Parallel bounds intra-run worker pools (per-site kernels, algorithm
	// shards, sweep cells; 0 = GOMAXPROCS, 1 = sequential). It affects
	// wall-clock only, never result bytes, so it is freely sweepable.
	Parallel int `json:"parallel"`
	// Workload is the shared workload block (synthetic vocabulary + trace
	// reference); kinds without a first-class workload ignore it.
	Workload WorkloadJSON `json:"workload"`
	// Failures is the sweepable failure-injection overlay section; nil when
	// the document carries none. Kinds that cannot apply unavailability
	// windows to their capacity model must reject a non-nil section.
	Failures *FailuresJSON `json:"failures"`
}

// DefaultKind is assumed when a scenario document carries no "kind" field.
const DefaultKind = "datacenter"

// ParseCommon extracts the typed document header, applying the
// backward-compatible default kind. It is the one parse point for the
// envelope: runners, the sweep expander, and distributed coordinators all
// call it.
func ParseCommon(raw json.RawMessage) (Common, error) {
	var c Common
	if err := json.Unmarshal(raw, &c); err != nil {
		return c, fmt.Errorf("scenario: parse envelope: %w", err)
	}
	if c.Kind == "" {
		c.Kind = DefaultKind
	}
	return c, nil
}

// RejectParallel is the guard for kinds with no intra-run shard axis: a
// document that sets "parallel" on them errors loudly instead of silently
// no-opping — a sweep over /parallel on such a kind would otherwise burn
// cells measuring nothing. Mirrors RejectFailures.
func (c Common) RejectParallel(kind string) error {
	if c.Parallel != 0 {
		return fmt.Errorf("scenario %q does not shard and ignores parallel; remove the field (sharding kinds: federation, graph, sweep)", kind)
	}
	return nil
}

// Schemer is optionally implemented by scenarios that publish the Go value
// of their full document schema, enabling strict parsing: Strict decodes the
// document into a fresh schema value with unknown fields disallowed, so a
// misspelled field errors with the offending key instead of being silently
// ignored (mcsim -strict).
type Schemer interface {
	// Schema returns a pointer to a zero value of the document schema.
	Schema() any
}

// Strict re-parses a full scenario document against the schema its kind
// publishes, rejecting unknown fields anywhere in the document. For a sweep
// document the base document and every expanded cell are checked against the
// base kind's schema, which catches misspelled grid paths as well — a grid
// axis that names a field no schema declares would otherwise sweep nothing,
// silently.
func Strict(raw json.RawMessage) error {
	env, err := ParseCommon(raw)
	if err != nil {
		return err
	}
	if err := strictKind(env.Kind, raw); err != nil {
		return err
	}
	if env.Kind != "sweep" {
		return nil
	}
	_, baseKind, cells, err := ExpandSweepDocument(raw)
	if err != nil {
		return err
	}
	for _, cell := range cells {
		if err := strictKind(baseKind, cell.Doc); err != nil {
			if cell.Key == "" {
				return err
			}
			return fmt.Errorf("cell %q: %w", cell.Key, err)
		}
	}
	return nil
}

// strictKind decodes raw into kind's published schema with unknown fields
// disallowed.
func strictKind(kind string, raw json.RawMessage) error {
	factory, ok := Lookup(kind)
	if !ok {
		return fmt.Errorf("scenario: unknown kind %q (registered: %v)", kind, List())
	}
	sch, ok := factory().(Schemer)
	if !ok {
		return fmt.Errorf("scenario %q does not publish a schema (strict parsing unavailable)", kind)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(sch.Schema()); err != nil {
		return fmt.Errorf("scenario %q: strict parse: %w", kind, err)
	}
	return nil
}
