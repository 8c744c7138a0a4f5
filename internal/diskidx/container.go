// Package diskidx stores an index as sealed, memory-mappable files: the
// paper's deployment layout (Section 6.1) keeps posting lists on disk behind a
// small in-memory directory, and here the on-disk bytes are the in-memory
// layout itself, so opening an index is a page-table operation rather than a
// rebuild. A segment directory holds one posting segment per shard
// (SEALIDX2, segment.go) and one dataset segment (dataset.go).
//
// Both kinds are the section container of this file: a 64-byte header, a
// section table, and page-aligned CRC-checked payloads. They differ only in
// their magic, what the three header counts mean, and which sections they
// carry.
//
// File layout (all integers little endian):
//
//	header   64 bytes
//	    magic     [8]byte
//	    version   uint32
//	    flags     uint32
//	    counts    3 × uint64   meaning set by the file kind
//	    sections  uint32       number of section-table entries
//	    reserved  [20]byte     zero
//	section table   sections × 24 bytes
//	    id   uint32
//	    crc  uint32   CRC32 (IEEE) of the section payload
//	    off  uint64   absolute file offset, 4096-aligned
//	    len  uint64   payload length in bytes
//	sections   page-aligned payloads, zero-padded between
//
// All geometry claimed by the header is validated against the actual file
// size, and every section against its checksum, before a byte of payload is
// handed to the kind-specific validators, so corruption is detected at open
// rather than producing silent wrong answers.
package diskidx

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"github.com/sealdb/seal/internal/faultfs"
)

// ErrCorrupt reports a checksum mismatch or malformed file section.
var ErrCorrupt = errors.New("diskidx: corrupt index data")

// ErrStaleVersion reports a sealed file whose version is one this package
// once wrote and no longer reads. It accompanies ErrCorrupt — the file cannot
// be served — but marks the cause as a format change, not damage.
var ErrStaleVersion = errors.New("diskidx: file of an earlier layout version")

const (
	segPage       = 4096
	segHeaderSize = 64
	segEntrySize  = 24
	// segMaxSections bounds the section table; the densest layout (the
	// dataset segment) uses 11 sections, so anything past a small cap is
	// garbage.
	segMaxSections = 16
)

type section struct {
	id   uint32
	data []byte
	off  int64
}

func alignPage(off int64) int64 {
	return (off + segPage - 1) &^ (segPage - 1)
}

// writeContainer lays secs out at page-aligned offsets behind a header and
// section table, and writes the file crash-safely: it streams into
// path+".tmp", which is fsynced and atomically renamed over path
// (faultfs.Atomic). A crash at any step leaves the previous file (or nothing)
// plus at worst an abandoned temp for the boot-time sweep — never a torn file
// under the real name.
func writeContainer(path string, magic [8]byte, version, flags uint32, counts [3]uint64, secs []section) error {
	table := make([]byte, len(secs)*segEntrySize)
	off := alignPage(segHeaderSize + int64(len(table)))
	for i := range secs {
		s := &secs[i]
		s.off = off
		e := table[i*segEntrySize:]
		binary.LittleEndian.PutUint32(e[0:], s.id)
		binary.LittleEndian.PutUint32(e[4:], crc32.ChecksumIEEE(s.data))
		binary.LittleEndian.PutUint64(e[8:], uint64(s.off))
		binary.LittleEndian.PutUint64(e[16:], uint64(len(s.data)))
		off = alignPage(off + int64(len(s.data)))
	}

	var hdr [segHeaderSize]byte
	copy(hdr[:8], magic[:])
	binary.LittleEndian.PutUint32(hdr[8:], version)
	binary.LittleEndian.PutUint32(hdr[12:], flags)
	for i, c := range counts {
		binary.LittleEndian.PutUint64(hdr[16+8*i:], c)
	}
	binary.LittleEndian.PutUint32(hdr[40:], uint32(len(secs)))

	err := faultfs.Atomic(path, func(out io.Writer) error {
		w := &segWriter{w: bufio.NewWriterSize(out, 1<<20)}
		w.write(hdr[:])
		w.write(table)
		for _, s := range secs {
			w.padTo(s.off)
			w.write(s.data)
		}
		if w.err == nil {
			w.err = w.w.Flush()
		}
		return w.err
	})
	if err != nil {
		return fmt.Errorf("diskidx: %w", err)
	}
	return nil
}

// segWriter is a byte-counting writer with error latching and zero padding.
type segWriter struct {
	w   *bufio.Writer
	off int64
	err error
}

var segZeros [segPage]byte

func (s *segWriter) write(p []byte) {
	if s.err != nil {
		return
	}
	n, err := s.w.Write(p)
	s.off += int64(n)
	s.err = err
}

func (s *segWriter) padTo(off int64) {
	for s.err == nil && s.off < off {
		n := off - s.off
		if n > segPage {
			n = segPage
		}
		s.write(segZeros[:n])
	}
}

// mapPath maps the sealed file at path read-only (falling back to reading it
// into memory where mmap fails; mapped reports which). The bytes pass through
// the injection seam for read corruption: with a fault installed they may be
// a bit-flipped copy, exercising exactly the validation a damaged disk would.
func mapPath(path string) (data []byte, closer func() error, mapped bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, false, fmt.Errorf("diskidx: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, nil, false, fmt.Errorf("diskidx: %w", err)
	}
	size := fi.Size()
	if size < segHeaderSize {
		return nil, nil, false, fmt.Errorf("%w: file smaller than segment header", ErrCorrupt)
	}
	if size != int64(int(size)) {
		return nil, nil, false, fmt.Errorf("%w: segment too large for this platform", ErrCorrupt)
	}
	data, closer, mapped, err = mapFile(f, int(size))
	if err != nil {
		return nil, nil, false, fmt.Errorf("diskidx: %w", err)
	}
	return faultfs.CorruptRead(path, data), closer, mapped, nil
}

// container is a parsed sealed file: its header fields and one checksummed
// view per section. Kind-specific openers take the sections they expect and
// then call done.
type container struct {
	flags  uint32
	counts [3]uint64
	views  map[uint32][]byte
}

// parseContainer validates data's header, section table and section
// checksums. data must be at least segHeaderSize long (mapPath guarantees it).
func parseContainer(data []byte, magic [8]byte, version uint32) (*container, error) {
	if [8]byte(data[:8]) != magic {
		return nil, fmt.Errorf("%w: bad segment magic", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != version {
		if v >= 1 && v < version {
			return nil, fmt.Errorf("%w: %w (version %d, want %d)", ErrCorrupt, ErrStaleVersion, v, version)
		}
		return nil, fmt.Errorf("%w: unsupported segment version %d", ErrCorrupt, v)
	}
	c := &container{flags: binary.LittleEndian.Uint32(data[12:])}
	for i := range c.counts {
		c.counts[i] = binary.LittleEndian.Uint64(data[16+8*i:])
	}
	nSections := binary.LittleEndian.Uint32(data[40:])

	size := int64(len(data))
	if nSections > segMaxSections {
		return nil, fmt.Errorf("%w: implausible section count %d", ErrCorrupt, nSections)
	}
	tblEnd := int64(segHeaderSize) + int64(nSections)*segEntrySize
	if tblEnd > size {
		return nil, fmt.Errorf("%w: section table exceeds file size", ErrCorrupt)
	}

	c.views = make(map[uint32][]byte, nSections)
	for i := 0; i < int(nSections); i++ {
		e := data[segHeaderSize+i*segEntrySize:]
		id := binary.LittleEndian.Uint32(e[0:])
		crc := binary.LittleEndian.Uint32(e[4:])
		off := binary.LittleEndian.Uint64(e[8:])
		length := binary.LittleEndian.Uint64(e[16:])
		if off%segPage != 0 {
			return nil, fmt.Errorf("%w: section %d not page aligned", ErrCorrupt, id)
		}
		if off < uint64(tblEnd) || off > uint64(size) || length > uint64(size)-off {
			return nil, fmt.Errorf("%w: section %d out of file bounds", ErrCorrupt, id)
		}
		if _, dup := c.views[id]; dup {
			return nil, fmt.Errorf("%w: duplicate section %d", ErrCorrupt, id)
		}
		v := data[off : off+length]
		if crc32.ChecksumIEEE(v) != crc {
			return nil, fmt.Errorf("%w: section %d checksum mismatch", ErrCorrupt, id)
		}
		c.views[id] = v
	}
	return c, nil
}

// take removes and returns section id, which must hold n elements of width
// bytes each (n < 0 accepts any whole number of them).
func (c *container) take(id uint32, n int64, width int) ([]byte, error) {
	v, ok := c.views[id]
	if !ok {
		return nil, fmt.Errorf("%w: missing section %d", ErrCorrupt, id)
	}
	delete(c.views, id)
	if n >= 0 && int64(len(v)) != n*int64(width) {
		return nil, fmt.Errorf("%w: section %d length %d, want %d", ErrCorrupt, id, len(v), n*int64(width))
	}
	if len(v)%width != 0 {
		return nil, fmt.Errorf("%w: section %d length %d not a multiple of %d", ErrCorrupt, id, len(v), width)
	}
	return v, nil
}

// done rejects sections no opener took.
func (c *container) done() error {
	if len(c.views) != 0 {
		return fmt.Errorf("%w: unexpected extra sections", ErrCorrupt)
	}
	return nil
}
