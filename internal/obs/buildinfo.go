package obs

import (
	"fmt"
	"runtime/debug"
	"sync"
)

// BuildInfo identifies the running binary: the module version, the Go
// toolchain, and the VCS revision baked in by the Go linker. A worker
// misbehaving after a partial rollout is findable by revision, not just
// by address.
type BuildInfo struct {
	// Version is the main module version ("(devel)" for plain builds).
	Version string `json:"version"`
	// GoVersion is the toolchain that built the binary.
	GoVersion string `json:"go_version"`
	// Revision is the VCS commit (empty when built outside a checkout).
	Revision string `json:"revision,omitempty"`
	// Modified marks builds from a dirty working tree.
	Modified bool `json:"modified,omitempty"`
}

var (
	buildInfoOnce sync.Once
	buildInfo     BuildInfo
)

// ReadBuildInfo returns the binary's build identity, reading the embedded
// runtime/debug info once.
func ReadBuildInfo() BuildInfo {
	buildInfoOnce.Do(func() {
		bi, ok := debug.ReadBuildInfo()
		if !ok {
			buildInfo = BuildInfo{Version: "unknown", GoVersion: "unknown"}
			return
		}
		buildInfo = BuildInfo{Version: bi.Main.Version, GoVersion: bi.GoVersion}
		if buildInfo.Version == "" {
			buildInfo.Version = "(devel)"
		}
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				buildInfo.Revision = s.Value
			case "vcs.modified":
				buildInfo.Modified = s.Value == "true"
			}
		}
	})
	return buildInfo
}

// RegisterBuildInfo publishes the `acstab_build_info` gauge (constant 1,
// identity in the labels — the Prometheus build-info idiom) in the
// Default registry and returns the info. Safe to call repeatedly.
func RegisterBuildInfo() BuildInfo {
	bi := ReadBuildInfo()
	rev := bi.Revision
	if len(rev) > 12 {
		rev = rev[:12]
	}
	GetGauge(fmt.Sprintf("acstab_build_info{version=%q,go_version=%q,revision=%q}",
		bi.Version, bi.GoVersion, rev)).Set(1)
	return bi
}
