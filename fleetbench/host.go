package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// host is the metadata stamped into every result.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	// Commit is the git commit when the tree is a git checkout; in an
	// exported tree it is "source:" and a hash of the Go sources the servers
	// were built from.
	Commit string `json:"commit"`
}

func hostInfo() host {
	return host{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     commit(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, value, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(value)
		}
	}
	return "unknown"
}

func commit() string {
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	return "source:" + sourceDigest()
}

// sourceDigest hashes go.mod and every file under cmd/, internal/ and pkg/.
func sourceDigest() string {
	h := sha256.New()
	add := func(path string) {
		data, err := os.ReadFile(path)
		if err == nil {
			h.Write([]byte(path + "\x00"))
			h.Write(data)
		}
	}
	add("go.mod")
	for _, dir := range []string{"cmd", "internal", "pkg"} {
		_ = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err == nil && d.Type().IsRegular() {
				add(path)
			}
			return nil // an unreadable entry only weakens the digest
		})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
