package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"

	"tierdb/internal/wal"
)

// env records what the numbers of a result file depend on besides the
// code: two files compare only when everything here but the commit
// matches.
type env struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GitCommit  string  `json:"git_commit"`
	Seeds      []int64 `json:"seeds"`
	Smoke      bool    `json:"smoke"`
	WindowS    float64 `json:"window_s"`
	WarmupS    float64 `json:"warmup_s"`
	PassS      float64 `json:"traced_pass_s"`
	TmpFS      string  `json:"tmp_filesystem"` // statfs type of the scratch directory
	Flush      string  `json:"flush_policy"`
	Scale      scale   `json:"scale"`
	LaneScale  scale   `json:"lane_scale"`
	// ClosedLoopMaxRate sizes a closed-loop worker's op stream (ops.go).
	ClosedLoopMaxRate int `json:"closed_loop_max_rate"`
	SampleRate        int `json:"oracle_sample_every"`
}

func environment(opt options) env {
	e := env{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GitCommit: "unknown", Smoke: opt.smoke,
		WindowS: opt.window.Seconds(), WarmupS: opt.warmup().Seconds(), PassS: opt.pass().Seconds(),
		TmpFS: "unknown",
		Flush: fmt.Sprintf("SyncGroup, fsync every %s (the default)", wal.DefaultGroupInterval),
		Scale: opt.sc, LaneScale: opt.laneSc, ClosedLoopMaxRate: closedLoopMaxRate, SampleRate: sampleEvery,
	}
	// Best effort: the driver's checkout is not a git repository.
	if rev, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		e.GitCommit = strings.TrimSpace(string(rev))
	}
	if err := os.MkdirAll(opt.tmp, 0o755); err == nil {
		var st syscall.Statfs_t
		if syscall.Statfs(opt.tmp, &st) == nil {
			e.TmpFS = fmt.Sprintf("%#x", st.Type)
		}
	}
	return e
}

// comparableTo reports why the numbers of two environments cannot be
// compared, or "".
func (e env) comparableTo(o env) string {
	e.GitCommit, o.GitCommit = "", ""
	a, _ := json.Marshal(e)
	b, _ := json.Marshal(o)
	if string(a) != string(b) {
		return fmt.Sprintf("environments differ:\n  %s\n  %s", a, b)
	}
	return ""
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Env       env         `json:"env"`
	Workloads []*workload `json:"workloads"` // every constant of every workload
	Runs      []*result   `json:"runs"`
}

func (f *resultFile) write(path string) error {
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}
