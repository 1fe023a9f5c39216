package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// fsName names the file system holding path, from its statfs magic number.
func fsName(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x6969:
		return "nfs"
	default:
		return fmt.Sprintf("0x%x", uint32(st.Type))
	}
}

// gitCommit reads the checkout's HEAD without running git; a checkout that is
// not a repository (the driver's) reports "unknown".
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if name, ok := strings.CutPrefix(ref, "ref: "); ok {
		if sha, err := os.ReadFile(filepath.Join(root, ".git", name)); err == nil {
			return strings.TrimSpace(string(sha))
		}
		return name
	}
	return ref
}

// envHeader is the run header every output carries.
func envHeader(root, dataDir, ramDir string, seed uint64) map[string]any {
	tmpfs := 0
	if fsName(ramDir) == "tmpfs" {
		tmpfs = 1
	}
	return map[string]any{
		"env.nproc":        runtime.NumCPU(),
		"env.gomaxprocs":   runtime.GOMAXPROCS(0),
		"env.go_version":   runtime.Version(),
		"env.datadir_fs":   fsName(dataDir),
		"env.ramlog_tmpfs": tmpfs,
		"git_commit":       gitCommit(root),
		"seed":             seed,
	}
}
