package dataset

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"strings"
)

// Text serialization: one set per line, fields separated by tabs, first
// field the set name, remaining fields the entity strings. Lines starting
// with '#' and blank lines are ignored. This is the on-disk format of
// cmd/datagen and the input format of cmd/setdisc.
//
// A backslash escapes the byte after it: \t, \n and \r stand for tab,
// newline and carriage return, and any other escaped byte for itself.
// WriteText escapes those three, the backslash, and a '#' that starts a
// set name, so every line it writes reads back as the set it wrote.

// WriteText writes the collection in the text format. Collections built
// from raw IDs render entities as "#<id>".
func (c *Collection) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, s := range c.sets {
		if strings.HasPrefix(s.Name, "#") {
			// Unescaped, the line would read as a comment.
			if err := bw.WriteByte('\\'); err != nil {
				return err
			}
		}
		if _, err := bw.WriteString(escapeField(s.Name)); err != nil {
			return err
		}
		for _, e := range s.Elems {
			if err := bw.WriteByte('\t'); err != nil {
				return err
			}
			if _, err := bw.WriteString(escapeField(c.EntityName(e))); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// fieldEscaper escapes what a field cannot hold as is: the backslash, the
// tab that separates fields, the newline that ends a line, and the
// carriage return that the reader strips from a line's end.
var fieldEscaper = strings.NewReplacer("\\", "\\\\", "\t", "\\t", "\n", "\\n", "\r", "\\r")

func escapeField(s string) string {
	if !strings.ContainsAny(s, "\t\n\r\\") {
		return s
	}
	return fieldEscaper.Replace(s)
}

// appendUnescaped appends field f, its escapes resolved, to dst. A trailing
// lone backslash stands for itself.
func appendUnescaped(dst, f []byte) []byte {
	for {
		i := bytes.IndexByte(f, '\\')
		if i < 0 || i+1 == len(f) {
			return append(dst, f...)
		}
		dst = append(dst, f[:i]...)
		switch b := f[i+1]; b {
		case 't':
			dst = append(dst, '\t')
		case 'n':
			dst = append(dst, '\n')
		case 'r':
			dst = append(dst, '\r')
		default:
			dst = append(dst, b)
		}
		f = f[i+2:]
	}
}

// ReadText parses the text format and builds a collection. Duplicate sets
// are dropped (matching the paper's preprocessing). It parses each line in
// the scanner's buffer and copies only what the collection keeps: each set
// name, and each entity string the first time it occurs.
func ReadText(r io.Reader) (*Collection, error) {
	b := NewBuilder().DropDuplicates()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var field []byte // one field, its escapes resolved
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		name, rest, more := bytes.Cut(line, []byte{'\t'})
		if !more {
			return nil, fmt.Errorf("dataset: line %d: set %q has no elements", lineNo, name)
		}
		for more {
			var f []byte
			f, rest, more = bytes.Cut(rest, []byte{'\t'})
			field = appendUnescaped(field[:0], f)
			b.list.elems = append(b.list.elems, b.dict.InternBytes(field))
		}
		field = appendUnescaped(field[:0], name)
		b.list.end(string(field))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return b.Build()
}

// Binary serialization: a compact varint format for large synthetic
// collections. Layout:
//
//	magic "SDC1" | numEntities | numSets |
//	  per set: nameLen name elemCount delta-varint elems
//
// Entity strings are not stored; binary files are for ID-built collections.

const binaryMagic = "SDC1"

// WriteBinary writes the collection in the compact binary format.
func (c *Collection) WriteBinary(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	writeUvarint(bw, uint64(c.numEntities))
	writeUvarint(bw, uint64(len(c.sets)))
	for _, s := range c.sets {
		writeUvarint(bw, uint64(len(s.Name)))
		bw.WriteString(s.Name)
		writeUvarint(bw, uint64(len(s.Elems)))
		prev := uint32(0)
		for _, e := range s.Elems {
			writeUvarint(bw, uint64(e-prev))
			prev = e
		}
	}
	return bw.Flush()
}

func writeUvarint(w *bufio.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	w.Write(buf[:n])
}

// ReadBinary parses the compact binary format.
func ReadBinary(r io.Reader) (*Collection, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("dataset: reading magic: %w", err)
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("dataset: bad magic %q", magic)
	}
	numEntities, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if numEntities > uint64(^uint32(0))+1 {
		return nil, fmt.Errorf("dataset: universe size %d exceeds uint32 IDs", numEntities)
	}
	numSets, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	// Counts are untrusted: never allocate proportionally to a declared
	// length before the corresponding bytes have actually been read. The
	// sets grow by append as their bytes arrive.
	const maxNameLen = 1 << 20
	var l setList
	var name []byte
	for i := uint64(0); i < numSets; i++ {
		nameLen, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		if nameLen > maxNameLen {
			return nil, fmt.Errorf("dataset: set %d name length %d exceeds %d", i, nameLen, maxNameLen)
		}
		name = slices.Grow(name[:0], int(nameLen))[:nameLen]
		if _, err := io.ReadFull(br, name); err != nil {
			return nil, err
		}
		elemCount, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		if elemCount > numEntities {
			return nil, fmt.Errorf("dataset: set %d claims %d elements in a universe of %d",
				i, elemCount, numEntities)
		}
		prev := uint64(0)
		for j := uint64(0); j < elemCount; j++ {
			d, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, err
			}
			prev += d
			if prev >= numEntities {
				return nil, fmt.Errorf("dataset: set %d element %d beyond universe %d", i, prev, numEntities)
			}
			l.elems = append(l.elems, uint32(prev))
		}
		l.end(string(name))
	}
	return build(&l, nil, int(numEntities), true)
}
