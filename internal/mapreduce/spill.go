package mapreduce

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// The spill file is the shuffle's on-disk columnar form, little-endian
// throughout:
//
//	magic   "ITMRCOL1"
//	u32     extent count
//	extent  × count:
//	  u32   rows, u32 floats, u32 ints
//	  int32 × rows, for each of the eight row columns in Extent field order
//	        (Keys, Kinds, Srcs, Counts, Offs, Lens, IOffs, ILens)
//	  f32   × floats (IEEE-754 bits)
//	  int32 × ints
//	u32     CRC-32 (IEEE) of every preceding byte
//
// The reader never trusts a count: each is checked against the bytes left
// in the file before anything is allocated, every row's payload extents are
// checked against its arenas, and the checksum must match — a truncated or
// corrupt file is an error, never a panic or an oversized allocation.
const spillMagic = "ITMRCOL1"

// rowColumns is the number of int32 columns per row.
const rowColumns = 8

// columns returns e's row columns in file order.
func (e *Extent) columns() [rowColumns]*[]int32 {
	return [rowColumns]*[]int32{&e.Keys, &e.Kinds, &e.Srcs, &e.Counts, &e.Offs, &e.Lens, &e.IOffs, &e.ILens}
}

// Spill routes one reducer's extents through disk: it writes them to a new
// file under dir, reads them back in place and removes the file, returning
// its size — the reducer's real shuffle input in bytes. Concurrent spills
// into one directory use distinct files.
func Spill(dir string, exts []*Extent) (int64, error) {
	f, err := os.CreateTemp(dir, "shuffle-*.col")
	if err != nil {
		return 0, fmt.Errorf("mapreduce: spill create: %w", err)
	}
	defer os.Remove(f.Name())
	defer f.Close()
	size, err := WriteExtents(f, exts)
	if err != nil {
		return 0, fmt.Errorf("mapreduce: spill write: %w", err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, err
	}
	if err := ReadExtents(f, size, exts); err != nil {
		return 0, fmt.Errorf("mapreduce: spill read: %w", err)
	}
	return size, nil
}

// WriteExtents encodes exts in the spill format and returns the bytes
// written.
func WriteExtents(w io.Writer, exts []*Extent) (int64, error) {
	bw := bufio.NewWriter(w)
	cw := &countingWriter{w: bw}
	crc := crc32.NewIEEE()
	body := io.MultiWriter(cw, crc)
	var err error
	put := func(v any) {
		if err == nil {
			err = binary.Write(body, binary.LittleEndian, v)
		}
	}
	put([]byte(spillMagic))
	put(uint32(len(exts)))
	for _, e := range exts {
		if err := e.check(); err != nil {
			return cw.n, err
		}
		put([3]uint32{uint32(e.Len()), uint32(len(e.Floats)), uint32(len(e.Ints))})
		for _, col := range e.columns() {
			put(*col)
		}
		put(e.Floats)
		put(e.Ints)
	}
	if err == nil {
		err = binary.Write(cw, binary.LittleEndian, crc.Sum32())
	}
	if err == nil {
		err = bw.Flush()
	}
	return cw.n, err
}

// ReadExtents decodes a spill stream of size bytes into exts, reusing their
// buffers. The stream must hold exactly len(exts) extents.
func ReadExtents(r io.Reader, size int64, exts []*Extent) error {
	crc := crc32.NewIEEE()
	br := bufio.NewReader(r)
	body := io.TeeReader(br, crc)
	left := size
	// get decodes v, which is a fixed-size value or a slice of them, after
	// checking that it fits in what is left of the stream.
	get := func(v any) error {
		n := int64(binary.Size(v))
		if n > left {
			return io.ErrUnexpectedEOF
		}
		left -= n
		return binary.Read(body, binary.LittleEndian, v)
	}
	var magic [len(spillMagic)]byte
	if err := get(&magic); err != nil {
		return err
	}
	if string(magic[:]) != spillMagic {
		return errors.New("mapreduce: not a spill file")
	}
	var count uint32
	if err := get(&count); err != nil {
		return err
	}
	if int(count) != len(exts) {
		return fmt.Errorf("mapreduce: spill holds %d extents, want %d", count, len(exts))
	}
	for _, e := range exts {
		var dims [3]uint32
		if err := get(&dims); err != nil {
			return err
		}
		rows, floats, ints := int64(dims[0]), int64(dims[1]), int64(dims[2])
		// Everything below plus the checksum must fit in what is left.
		if need := 4*(rowColumns*rows+floats+ints) + 4; need > left {
			return fmt.Errorf("mapreduce: spill extent declares %d bytes, %d left", need, left)
		}
		for _, col := range e.columns() {
			*col = resizeInt32(*col, int(rows))
			if err := get(*col); err != nil {
				return err
			}
		}
		if cap(e.Floats) < int(floats) {
			e.Floats = make([]float32, floats)
		}
		e.Floats = e.Floats[:floats]
		e.Ints = resizeInt32(e.Ints, int(ints))
		if err := get(e.Floats); err != nil {
			return err
		}
		if err := get(e.Ints); err != nil {
			return err
		}
		if err := e.check(); err != nil {
			return err
		}
	}
	want := crc.Sum32()
	var got uint32
	if left != 4 {
		return fmt.Errorf("mapreduce: %d bytes after the last extent, want a 4-byte checksum", left)
	}
	if err := binary.Read(br, binary.LittleEndian, &got); err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("mapreduce: spill checksum %08x, want %08x", got, want)
	}
	return nil
}

// countingWriter counts the bytes written through it.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.w.Write(b)
	c.n += int64(n)
	return n, err
}
