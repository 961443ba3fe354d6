//go:build !unix

package ppvindex

import (
	"io"
	"os"
)

// fileBytes reads the size bytes of f into one heap buffer, where the
// platform has no mmap; mapped is false. An index larger than RAM cannot be
// served this way.
func fileBytes(f *os.File, size int) (data []byte, mapped bool, err error) {
	data = make([]byte, size)
	if _, err := io.ReadFull(io.NewSectionReader(f, 0, int64(size)), data); err != nil {
		return nil, false, err
	}
	return data, false, nil
}

// munmapFile is never reached here: no index is mapped.
func munmapFile(data []byte) error { return nil }
