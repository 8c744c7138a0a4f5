//go:build linux || darwin || freebsd || netbsd || openbsd || dragonfly

package diskidx

import (
	"os"
	"syscall"
)

// mapFile maps size bytes of f read-only. If the kernel refuses (exotic
// filesystem, resource limits) it degrades to reading the file into memory;
// the returned bool reports whether the bytes are actually mapped.
func mapFile(f *os.File, size int) ([]byte, func() error, error) {
	data, err := syscall.Mmap(int(f.Fd()), 0, size, syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return readFallback(f, size)
	}
	return data, func() error { return syscall.Munmap(data) }, nil
}
