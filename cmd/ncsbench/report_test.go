package main

import (
	"encoding/json"
	"runtime"
	"testing"
	"time"
)

// TestReportAttribution: every bench report records the runtime facts a
// later reader needs to compare runs — Go version, scheduler parallelism,
// and (when the binary was built from a checkout) the source commit.
func TestReportAttribution(t *testing.T) {
	r := newReporter(7, 4, true, false)
	rep := r.rep
	if rep.GoVersion != runtime.Version() {
		t.Errorf("go_version %q, want %q", rep.GoVersion, runtime.Version())
	}
	if rep.GOMAXPROCS != runtime.GOMAXPROCS(0) || rep.GOMAXPROCS <= 0 {
		t.Errorf("gomaxprocs %d, want %d", rep.GOMAXPROCS, runtime.GOMAXPROCS(0))
	}
	if rep.NumCPU != runtime.NumCPU() {
		t.Errorf("num_cpu %d, want %d", rep.NumCPU, runtime.NumCPU())
	}

	data, err := json.Marshal(&rep)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"go_version", "gomaxprocs", "num_cpu", "seed", "workers"} {
		if _, ok := decoded[key]; !ok {
			t.Errorf("report JSON missing %q: %s", key, data)
		}
	}
	// Test binaries carry no vcs stamp; the fields must then be absent
	// rather than empty noise.
	if commit, _ := vcsStamp(); commit == "" {
		if _, ok := decoded["git_commit"]; ok {
			t.Error("empty git_commit serialized")
		}
	} else if decoded["git_commit"] != commit {
		t.Errorf("git_commit %v, want %q", decoded["git_commit"], commit)
	}
}

// TestReporterRestartClock: a stage that restarts its clock after building
// its input reports only the work after the restart.
func TestReporterRestartClock(t *testing.T) {
	r := newReporter(1, 1, true, false)
	const setup = 100 * time.Millisecond
	var keep [][]byte
	if err := r.run("timed", func() error {
		time.Sleep(setup)
		for i := 0; i < 1000; i++ {
			keep = append(keep, make([]byte, 64))
		}
		r.restartClock()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	st := r.rep.Stages[0]
	if st.WallSeconds >= setup.Seconds() {
		t.Errorf("wall %.3fs includes the %v set-up before restartClock", st.WallSeconds, setup)
	}
	if st.Allocs >= 1000 {
		t.Errorf("%d allocations counted, want only those after restartClock", st.Allocs)
	}
}
