//go:build !(linux || darwin || freebsd || netbsd || openbsd || dragonfly)

package diskidx

import "os"

// mapFile on platforms without a (wired-up) mmap reads the segment into an
// aligned buffer; probes behave identically, minus the shared page cache.
func mapFile(f *os.File, size int) ([]byte, func() error, error) {
	return readFallback(f, size)
}
