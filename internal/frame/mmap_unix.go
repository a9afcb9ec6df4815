//go:build unix

package frame

import (
	"os"
	"syscall"
)

// mapFile maps path read-only and returns the mapping. The mapping is
// intentionally never unmapped: the zero-copy columns returned by
// DecodeColumnar hold references into it, and the garbage collector
// cannot tell when the last one is gone. That suits a resident lake,
// whose tables live for the process; a lake opened for one request
// reads its files into the heap instead (see ReadColumnarFile). Empty
// files fall back to a heap buffer because mmap rejects zero-length
// mappings.
func mapFile(path string) ([]byte, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	st, err := fh.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size == 0 {
		return []byte{}, nil
	}
	b, err := syscall.Mmap(int(fh.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		// Filesystems without mmap support (some network mounts) land
		// here; reading the file is slower but correct.
		return os.ReadFile(path)
	}
	return b, nil
}
