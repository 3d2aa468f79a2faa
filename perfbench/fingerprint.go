package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	stdruntime "runtime"
	"strings"
)

// defaultSeed is the seed baselines are recorded with; heldOutSeed is kept
// out of tuning so a later performance claim can be confirmed on inputs its
// author never measured.
const (
	defaultSeed = 1
	heldOutSeed = 7919
)

// fingerprint is the configuration a result was measured under. Two results
// are comparable only when every field but GitSHA matches: the code under
// test is what a comparison varies, everything else must stay fixed.
type fingerprint struct {
	NumCPU     int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	GoVersion  string    `json:"go_version"`
	GitSHA     string    `json:"git_sha"`
	Workload   string    `json:"workload"`
	Workers    int       `json:"workers"`
	Streams    int       `json:"streams"`
	Batch      int       `json:"batch"`
	Graph      string    `json:"graph"`
	Seed       uint64    `json:"seed"`
	Rates      []float64 `json:"rates_tps,omitempty"`
	RunSeconds float64   `json:"run_seconds"`
	Traced     bool      `json:"traced"`
}

func newFingerprint(r *run) fingerprint {
	return fingerprint{
		NumCPU:     stdruntime.NumCPU(),
		GOMAXPROCS: stdruntime.GOMAXPROCS(0),
		GoVersion:  stdruntime.Version(),
		GitSHA:     gitSHA("."),
		Workload:   r.workload,
		Seed:       r.seed,
		RunSeconds: r.seconds.Seconds(),
		Traced:     r.trace,
	}
}

func (f fingerprint) String() string {
	buf, _ := json.Marshal(f)
	return string(buf)
}

// configDiff names every field other than GitSHA in which f and g differ.
func (f fingerprint) configDiff(g fingerprint) []string {
	var diff []string
	fv, gv := reflect.ValueOf(f), reflect.ValueOf(g)
	t := fv.Type()
	for i := 0; i < t.NumField(); i++ {
		name := t.Field(i).Tag.Get("json")
		name, _, _ = strings.Cut(name, ",")
		if name == "git_sha" {
			continue
		}
		a, b := fv.Field(i).Interface(), gv.Field(i).Interface()
		if !reflect.DeepEqual(a, b) {
			diff = append(diff, fmt.Sprintf("%s %v vs %v", name, a, b))
		}
	}
	return diff
}

// gitSHA reads the checked-out commit from dir/.git without running git; a
// source tree that is not a git checkout reports "none".
func gitSHA(dir string) string {
	head, err := os.ReadFile(filepath.Join(dir, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if sha, err := os.ReadFile(filepath.Join(dir, ".git", ref)); err == nil {
		return strings.TrimSpace(string(sha))
	}
	f, err := os.Open(filepath.Join(dir, ".git", "packed-refs"))
	if err != nil {
		return "none"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if sha, name, ok := strings.Cut(sc.Text(), " "); ok && name == ref {
			return sha
		}
	}
	return "none"
}
