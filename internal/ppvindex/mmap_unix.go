//go:build unix

package ppvindex

import (
	"os"
	"syscall"
)

// fileBytes maps size bytes of f read-only and shared; mapped is true, and
// the bytes must be released with munmapFile. The mapping stays valid after
// f is closed.
func fileBytes(f *os.File, size int) (data []byte, mapped bool, err error) {
	data, err = syscall.Mmap(int(f.Fd()), 0, size, syscall.PROT_READ, syscall.MAP_SHARED)
	return data, err == nil, err
}

func munmapFile(data []byte) error { return syscall.Munmap(data) }
