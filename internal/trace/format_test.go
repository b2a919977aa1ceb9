package trace

import (
	"bytes"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"mcs/internal/workload"
)

// exactWorkload builds a workload exercising every field the native format
// must preserve: sub-millisecond times (lossy in GWF), deps, deadlines,
// accelerators, and a user name containing the CSV delimiter.
func exactWorkload() *workload.Workload {
	return &workload.Workload{Jobs: []workload.Job{
		{
			ID: 1, User: "alice", Submit: 1234567891, // ns, not ms-round
			Deadline: 99 * time.Second,
			Tasks: []workload.Task{
				{ID: 1, Job: 1, Cores: 2, MemoryMB: 512, Runtime: 1500000001},
				{ID: 2, Job: 1, Cores: 1, MemoryMB: 128, Runtime: 7, Deps: []workload.TaskID{1}, Accelerator: "gpu"},
			},
		},
		{
			ID: 2, User: "comma,user", Submit: 2 * time.Second,
			Tasks: []workload.Task{
				{ID: 3, Job: 2, Cores: 1, MemoryMB: 64, Runtime: time.Millisecond, Deps: []workload.TaskID{}},
			},
		},
	}}
}

func TestMCWRoundTripIsExact(t *testing.T) {
	w := exactWorkload()
	var buf bytes.Buffer
	if err := (mcwFormat{}).Write(&buf, w); err != nil {
		t.Fatal(err)
	}
	got, err := mcwFormat{}.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Normalize the one representational difference: empty vs nil deps.
	for i := range w.Jobs {
		for k := range w.Jobs[i].Tasks {
			if len(w.Jobs[i].Tasks[k].Deps) == 0 {
				w.Jobs[i].Tasks[k].Deps = nil
			}
		}
	}
	if !reflect.DeepEqual(w, got) {
		t.Errorf("round trip altered workload:\n want %+v\n  got %+v", w, got)
	}
}

func TestMCWSecondRoundTripIsByteStable(t *testing.T) {
	var first, second bytes.Buffer
	if err := (mcwFormat{}).Write(&first, exactWorkload()); err != nil {
		t.Fatal(err)
	}
	w, err := mcwFormat{}.Read(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := (mcwFormat{}).Write(&second, w); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Errorf("write/read/write not byte-stable:\n%s\nvs\n%s", first.String(), second.String())
	}
}

func TestMCWColumnOrderIsSelfDescribing(t *testing.T) {
	// Columns bound by name: a reordered, partial header still parses.
	in := strings.Join([]string{
		"#mcw v1",
		"#columns user,job,task,submit_ns,runtime_ns,cores,memory_mb",
		"bob,3,7,1000,2000,4,256",
	}, "\n")
	w, err := mcwFormat{}.Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Jobs) != 1 || w.Jobs[0].User != "bob" || w.Jobs[0].ID != 3 {
		t.Fatalf("parsed %+v", w.Jobs)
	}
	task := w.Jobs[0].Tasks[0]
	if task.ID != 7 || task.Runtime != 2000 || task.Cores != 4 || task.MemoryMB != 256 {
		t.Errorf("task = %+v", task)
	}
}

func TestMCWRejectsMalformedHeaders(t *testing.T) {
	cases := map[string]string{
		"empty input":             "",
		"wrong magic":             "# MCS grid workload format v1\n1 1 0 1 1 1 u -\n",
		"no columns line":         "#mcw v1\n",
		"record before columns":   "#mcw v1\n1,1,0,1,1,1,u\n",
		"missing required column": "#mcw v1\n#columns job,task,submit_ns\n",
		"duplicate column":        "#mcw v1\n#columns job,job,task,submit_ns,runtime_ns,cores,memory_mb,user\n",
		"empty column name":       "#mcw v1\n#columns job,,task,submit_ns,runtime_ns,cores,memory_mb,user\n",
	}
	for name, in := range cases {
		if _, err := (mcwFormat{}).Read(strings.NewReader(in)); !errors.Is(err, ErrBadHeader) {
			t.Errorf("%s: err = %v, want ErrBadHeader", name, err)
		}
	}
}

func TestMCWRejectsMalformedRecords(t *testing.T) {
	header := "#mcw v1\n#columns " + mcwColumns + "\n"
	cases := map[string]string{
		"non-numeric job": header + "x,1,0,1,1,1,u,0,,-\n",
		"bad deps":        header + "1,1,0,1,1,1,u,0,,a;b\n",
		"unbalanced csv":  header + "1,1,0,1,1,1,\"u,0,,-\n",
	}
	for name, in := range cases {
		if _, err := (mcwFormat{}).Read(strings.NewReader(in)); !errors.Is(err, ErrBadRecord) {
			t.Errorf("%s: err = %v, want ErrBadRecord", name, err)
		}
	}
}

func TestFormatRegistry(t *testing.T) {
	names := Formats()
	want := map[string]bool{FormatGWF: false, FormatMCW: false}
	for _, n := range names {
		if _, ok := want[n]; ok {
			want[n] = true
		}
	}
	for n, seen := range want {
		if !seen {
			t.Errorf("format %q not registered (have %v)", n, names)
		}
	}
	if _, err := FormatByName("parquet"); !errors.Is(err, ErrUnknownFormat) {
		t.Errorf("unknown format err = %v, want ErrUnknownFormat", err)
	}
	if _, err := FormatByName(""); !errors.Is(err, ErrUnknownFormat) {
		t.Errorf("empty format err = %v, want ErrUnknownFormat", err)
	}
}

func TestResolveFormat(t *testing.T) {
	cases := []struct {
		name, path, want string
	}{
		{"", "trace.mcw", FormatMCW},
		{"", "trace.gwf", FormatGWF},
		{"", "trace.txt", FormatGWF}, // unknown extension: historical default
		{"", "trace", FormatGWF},
		{FormatMCW, "trace.gwf", FormatMCW}, // explicit name wins
	}
	for _, c := range cases {
		f, err := ResolveFormat(c.name, c.path)
		if err != nil {
			t.Fatalf("ResolveFormat(%q, %q): %v", c.name, c.path, err)
		}
		if f.Name() != c.want {
			t.Errorf("ResolveFormat(%q, %q) = %s, want %s", c.name, c.path, f.Name(), c.want)
		}
	}
	if _, err := ResolveFormat("bogus", "x.mcw"); !errors.Is(err, ErrUnknownFormat) {
		t.Errorf("bogus format err = %v", err)
	}
}

func TestFileSourceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "w.mcw")
	w := exactWorkload()
	if err := WriteFile(path, "", w); err != nil {
		t.Fatal(err)
	}
	got, err := File{Path: path}.Load()
	if err != nil {
		t.Fatal(err)
	}
	if got.TaskCount() != w.TaskCount() || len(got.Jobs) != len(w.Jobs) {
		t.Errorf("loaded %d jobs / %d tasks, want %d / %d",
			len(got.Jobs), got.TaskCount(), len(w.Jobs), w.TaskCount())
	}
}

func TestFileSourceErrors(t *testing.T) {
	if _, err := (File{Path: "/nonexistent/x.mcw"}).Load(); err == nil {
		t.Error("missing file did not error")
	}
	if _, err := (File{Path: "x.mcw", Format: "bogus"}).Load(); !errors.Is(err, ErrUnknownFormat) {
		t.Errorf("bogus format err = %v", err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.mcw")
	if err := WriteFile(path, "bogus", nil); !errors.Is(err, ErrUnknownFormat) {
		t.Errorf("WriteFile bogus format err = %v", err)
	}
}

func TestMCWRejectsTruncatedRecords(t *testing.T) {
	// A short row must be ErrBadRecord, never a zero-filled workload (a
	// partially written trace would otherwise replay as silently
	// different work).
	header := "#mcw v1\n#columns " + mcwColumns + "\n"
	for name, in := range map[string]string{
		"too few fields":  header + "5,3\n",
		"too many fields": header + "1,1,0,1,1,1,u,0,,-,extra\n",
	} {
		if _, err := (mcwFormat{}).Read(strings.NewReader(in)); !errors.Is(err, ErrBadRecord) {
			t.Errorf("%s: err = %v, want ErrBadRecord", name, err)
		}
	}
}

func TestMCWRoundTripsNewlineBearingFields(t *testing.T) {
	// csv quoting may split a field across lines; the reader must parse
	// its own writer's output whatever the user string contains.
	w := &workload.Workload{Jobs: []workload.Job{{
		ID: 1, User: "line1\nline2,with comma", Submit: time.Second,
		Tasks: []workload.Task{{ID: 1, Job: 1, Cores: 1, MemoryMB: 8, Runtime: time.Second, Accelerator: "a\nb"}},
	}}}
	var buf bytes.Buffer
	if err := (mcwFormat{}).Write(&buf, w); err != nil {
		t.Fatal(err)
	}
	got, err := mcwFormat{}.Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("reader cannot parse its own writer's output: %v", err)
	}
	if got.Jobs[0].User != w.Jobs[0].User || got.Jobs[0].Tasks[0].Accelerator != "a\nb" {
		t.Errorf("newline fields altered: %+v", got.Jobs[0])
	}
}

func TestMCWGroupingSemantics(t *testing.T) {
	// The header comment's promises: tasks of one job on non-adjacent rows
	// group under that job, jobs keep first-appearance order (not ID
	// order), unknown columns are ignored, and absent optional columns
	// (deadline_ns, accelerator, deps) read as zero values.
	in := "#mcw v1\n" +
		"#columns job,task,submit_ns,runtime_ns,cores,memory_mb,user,extra\n" +
		"7,1,300,10,1,64,bob,ignored\n" +
		"2,2,100,20,2,128,amy,x\n" +
		"7,3,300,30,4,256,bob,y\n" +
		"5,4,200,40,1,32,cid,z\n" +
		"2,5,100,50,1,16,amy,\n"
	got, err := mcwFormat{}.Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := &workload.Workload{Jobs: []workload.Job{
		{ID: 7, User: "bob", Submit: 300, Tasks: []workload.Task{
			{ID: 1, Job: 7, Cores: 1, MemoryMB: 64, Runtime: 10},
			{ID: 3, Job: 7, Cores: 4, MemoryMB: 256, Runtime: 30},
		}},
		{ID: 2, User: "amy", Submit: 100, Tasks: []workload.Task{
			{ID: 2, Job: 2, Cores: 2, MemoryMB: 128, Runtime: 20},
			{ID: 5, Job: 2, Cores: 1, MemoryMB: 16, Runtime: 50},
		}},
		{ID: 5, User: "cid", Submit: 200, Tasks: []workload.Task{
			{ID: 4, Job: 5, Cores: 1, MemoryMB: 32, Runtime: 40},
		}},
	}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("grouping:\n want %+v\n  got %+v", want, got)
	}
}
