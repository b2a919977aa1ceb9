package trace

// The native MCS workload format ("mcw"): a CSV body under a
// self-describing header. Unlike GWF (whose times are millisecond-precision
// seconds), mcw stores every duration as exact integer nanoseconds, so a
// write/read round trip reproduces the workload byte for byte — the
// property the trace-replay determinism contract rests on.
//
// Layout:
//
//	#mcw v1
//	#columns job,task,submit_ns,runtime_ns,cores,memory_mb,user,deadline_ns,accelerator,deps
//	1,1,0,1500000000,1,128,user3,0,,-
//
// '#'-prefixed lines are the header; the "#columns" line names the CSV
// columns, so readers bind fields by name, not position. Unknown columns
// are ignored (forward compatibility); missing required columns are a
// malformed-header error. deps is a semicolon-separated task-ID list or
// "-" when empty. Tasks of one job may span non-adjacent rows; jobs keep
// their first-appearance order.

import (
	"bufio"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"mcs/internal/workload"
)

// ErrBadHeader reports a missing or malformed mcw header.
var ErrBadHeader = errors.New("trace: malformed mcw header")

const (
	mcwMagic   = "#mcw v1"
	mcwColumns = "job,task,submit_ns,runtime_ns,cores,memory_mb,user,deadline_ns,accelerator,deps"
)

type mcwFormat struct{}

func (mcwFormat) Name() string { return FormatMCW }

// Write implements Format. The encoding is exact (integer nanoseconds).
func (mcwFormat) Write(out io.Writer, w *workload.Workload) error {
	bw := bufio.NewWriter(out)
	fmt.Fprintln(bw, mcwMagic)
	fmt.Fprintln(bw, "#columns "+mcwColumns)
	cw := csv.NewWriter(bw)
	for i := range w.Jobs {
		j := &w.Jobs[i]
		for _, t := range j.Tasks {
			deps := "-"
			if len(t.Deps) > 0 {
				parts := make([]string, len(t.Deps))
				for k, d := range t.Deps {
					parts[k] = strconv.FormatInt(int64(d), 10)
				}
				deps = strings.Join(parts, ";")
			}
			rec := []string{
				strconv.FormatInt(int64(j.ID), 10),
				strconv.FormatInt(int64(t.ID), 10),
				strconv.FormatInt(int64(j.Submit), 10),
				strconv.FormatInt(int64(t.Runtime), 10),
				strconv.Itoa(t.Cores),
				strconv.Itoa(t.MemoryMB),
				j.User,
				strconv.FormatInt(int64(j.Deadline), 10),
				t.Accelerator,
				deps,
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	return bw.Flush()
}

// mcwRequired are the columns a header must name.
var mcwRequired = []string{"job", "task", "submit_ns", "runtime_ns", "cores", "memory_mb", "user"}

// mcwCols is a header's column binding, resolved once per file: the
// record index of each known column, or -1 for an absent optional one.
type mcwCols struct {
	n                                              int // columns the header names
	job, task, submit, runtime, cores, memMB, user int
	deadline, accel, deps                          int
}

// Read implements Format. The header region ('#'-prefixed lines before the
// first record) is scanned line by line for the magic and the #columns
// binding; the body is then parsed by a real CSV reader, so quoted fields
// may contain commas and newlines, and every record is required to carry
// exactly the header's column count — a truncated record is ErrBadRecord,
// never a silently zero-filled workload.
func (mcwFormat) Read(in io.Reader) (*workload.Workload, error) {
	br := bufio.NewReader(in)
	magicSeen := false
	var col *mcwCols
	var firstRecord string
	for firstRecord == "" {
		text, readErr := br.ReadString('\n')
		if readErr != nil && readErr != io.EOF {
			return nil, fmt.Errorf("trace read: %w", readErr)
		}
		trimmed := strings.TrimSpace(text)
		switch {
		case trimmed == "":
			// blank line (or bare EOF): nothing to parse
		case !magicSeen:
			if trimmed != mcwMagic {
				return nil, fmt.Errorf("%w: first line %q, want %q", ErrBadHeader, trimmed, mcwMagic)
			}
			magicSeen = true
		case strings.HasPrefix(trimmed, "#"):
			if rest, ok := strings.CutPrefix(trimmed, "#columns"); ok {
				parsed, err := mcwParseColumns(rest)
				if err != nil {
					return nil, fmt.Errorf("%w: %v", ErrBadHeader, err)
				}
				col = parsed
			}
		default:
			if col == nil {
				return nil, fmt.Errorf("%w: record before #columns line", ErrBadHeader)
			}
			firstRecord = text
		}
		if readErr == io.EOF {
			if !magicSeen {
				return nil, fmt.Errorf("%w: empty input", ErrBadHeader)
			}
			break
		}
	}
	if col == nil {
		return nil, fmt.Errorf("%w: no #columns line", ErrBadHeader)
	}

	// Jobs are appended in first-appearance order; index maps a job ID to
	// its position so a later row of the same job finds it.
	w := &workload.Workload{Jobs: []workload.Job{}}
	index := make(map[workload.JobID]int)
	cr := csv.NewReader(io.MultiReader(strings.NewReader(firstRecord), br))
	cr.FieldsPerRecord = col.n
	cr.Comment = '#'
	cr.ReuseRecord = true // field strings stay valid; only the slice is reused
	for {
		fields, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadRecord, err)
		}
		if err := col.addRecord(w, index, fields); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadRecord, err)
		}
	}
	return w, nil
}

// mcwParseColumns binds column names to indices and checks the required set.
func mcwParseColumns(rest string) (*mcwCols, error) {
	pos := make(map[string]int)
	names := strings.Split(strings.TrimSpace(rest), ",")
	for i, name := range names {
		name = strings.TrimSpace(name)
		if name == "" {
			return nil, fmt.Errorf("empty column name")
		}
		if _, dup := pos[name]; dup {
			return nil, fmt.Errorf("duplicate column %q", name)
		}
		pos[name] = i
	}
	for _, req := range mcwRequired {
		if _, ok := pos[req]; !ok {
			return nil, fmt.Errorf("missing required column %q", req)
		}
	}
	at := func(name string) int {
		if i, ok := pos[name]; ok {
			return i
		}
		return -1
	}
	return &mcwCols{
		n:   len(names),
		job: at("job"), task: at("task"), submit: at("submit_ns"), runtime: at("runtime_ns"),
		cores: at("cores"), memMB: at("memory_mb"), user: at("user"),
		deadline: at("deadline_ns"), accel: at("accelerator"), deps: at("deps"),
	}, nil
}

// mcwField returns the record's value of column i, or "" for an absent one.
func mcwField(fields []string, i int) string {
	if i < 0 {
		return ""
	}
	return fields[i]
}

// mcwInt parses column i, named name, as an integer; an absent column
// reads as 0.
func mcwInt(fields []string, i int, name string) (int64, error) {
	if i < 0 {
		return 0, nil
	}
	v, err := strconv.ParseInt(fields[i], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%s: %v", name, err)
	}
	return v, nil
}

// addRecord parses one CSV record into w, appending a new job on its
// first appearance and the task to the job index names.
func (c *mcwCols) addRecord(w *workload.Workload, index map[workload.JobID]int, fields []string) error {
	jobID, err := mcwInt(fields, c.job, "job")
	if err != nil {
		return err
	}
	taskID, err := mcwInt(fields, c.task, "task")
	if err != nil {
		return err
	}
	submit, err := mcwInt(fields, c.submit, "submit_ns")
	if err != nil {
		return err
	}
	runtime, err := mcwInt(fields, c.runtime, "runtime_ns")
	if err != nil {
		return err
	}
	cores, err := mcwInt(fields, c.cores, "cores")
	if err != nil {
		return err
	}
	memMB, err := mcwInt(fields, c.memMB, "memory_mb")
	if err != nil {
		return err
	}
	deadline, err := mcwInt(fields, c.deadline, "deadline_ns")
	if err != nil {
		return err
	}
	var deps []workload.TaskID
	if s := mcwField(fields, c.deps); s != "-" && s != "" {
		for _, part := range strings.Split(s, ";") {
			d, err := strconv.ParseInt(part, 10, 64)
			if err != nil {
				return fmt.Errorf("deps: %v", err)
			}
			deps = append(deps, workload.TaskID(d))
		}
	}
	id := workload.JobID(jobID)
	at, ok := index[id]
	if !ok {
		at = len(w.Jobs)
		index[id] = at
		w.Jobs = append(w.Jobs, workload.Job{
			ID:       id,
			User:     mcwField(fields, c.user),
			Submit:   time.Duration(submit),
			Deadline: time.Duration(deadline),
		})
	}
	j := &w.Jobs[at]
	j.Tasks = append(j.Tasks, workload.Task{
		ID:          workload.TaskID(taskID),
		Job:         id,
		Cores:       int(cores),
		MemoryMB:    int(memMB),
		Runtime:     time.Duration(runtime),
		Deps:        deps,
		Accelerator: mcwField(fields, c.accel),
	})
	return nil
}
