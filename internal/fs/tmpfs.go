package fs

import (
	"genesys/internal/errno"
)

// Tmpfs is a memory-resident filesystem: reads and writes cost only the
// memory-system copy, with no backing storage — the filesystem used by
// the paper's invocation-granularity and coalescing microbenchmarks
// (Figures 7 and 10).
type Tmpfs struct {
	// BytesPerNS is the per-core copy bandwidth charged for I/O.
	BytesPerNS float64
}

// TmpfsBytesPerNS is tmpfs's per-core copy bandwidth: a pure memcpy
// with no page-cache management, so roughly twice the default rate.
const TmpfsBytesPerNS = 8.0

// NewTmpfs returns a tmpfs charging copies at the memcpy rate.
func NewTmpfs() *Tmpfs { return &Tmpfs{BytesPerNS: TmpfsBytesPerNS} }

// NewFile creates an empty tmpfs file node.
func (t *Tmpfs) NewFile() FileNode { return &tmpFile{fs: t} }

// Mount creates path as a tmpfs directory tree.
func (t *Tmpfs) Mount(v *VFS, path string) (*Dir, error) {
	return v.MkdirAll(path, t.NewFile)
}

type tmpFile struct {
	fs *Tmpfs
	fileBytes
}

// MaxFileSize is the largest size a tmpfs or ssdfs file may reach: twice
// the largest workload file (Figure 7's 256 MiB). A write or truncate
// past it fails with EFBIG instead of making the host allocate the gap.
const MaxFileSize = 512 << 20

// growZeroed returns data extended with zero bytes to length n, or data
// itself when it is already that long. It appends fresh zeros instead of
// reslicing into spare capacity, which can still hold the bytes an
// earlier shrinking Truncate cut off.
func growZeroed(data []byte, n int64) []byte {
	if n <= int64(len(data)) {
		return data
	}
	return append(data, make([]byte, n-int64(len(data)))...)
}

// fileBytes is the in-memory contents of a tmpfs or ssdfs file.
type fileBytes struct {
	data []byte
}

func (f *fileBytes) Size() int64 { return int64(len(f.data)) }

// read copies the bytes at off into b; past the end it reads nothing.
func (f *fileBytes) read(b []byte, off int64) (int, error) {
	if off < 0 {
		return 0, errno.EINVAL
	}
	if off >= int64(len(f.data)) {
		return 0, nil // EOF
	}
	return copy(b, f.data[off:]), nil
}

// write copies b into the file at off, zero-filling any gap past the
// old end. A zero-length write leaves the size alone, as POSIX does.
func (f *fileBytes) write(b []byte, off int64) (int, error) {
	if off < 0 {
		return 0, errno.EINVAL
	}
	if off > MaxFileSize-int64(len(b)) {
		return 0, errno.EFBIG
	}
	if len(b) == 0 {
		return 0, nil
	}
	end := off + int64(len(b))
	f.data = growZeroed(f.data, end)
	return copy(f.data[off:end], b), nil
}

func (f *fileBytes) Truncate(size int64) error {
	if size < 0 {
		return errno.EINVAL
	}
	if size > MaxFileSize {
		return errno.EFBIG
	}
	if size <= int64(len(f.data)) {
		f.data = f.data[:size]
		return nil
	}
	f.data = growZeroed(f.data, size)
	return nil
}

func (f *tmpFile) charge(io *IOCtx, n int) {
	ChargeCopy(io, int64(n), f.fs.BytesPerNS)
}

func (f *tmpFile) ReadAt(io *IOCtx, b []byte, off int64) (int, error) {
	n, err := f.read(b, off)
	f.charge(io, n)
	return n, err
}

func (f *tmpFile) WriteAt(io *IOCtx, b []byte, off int64) (int, error) {
	n, err := f.write(b, off)
	f.charge(io, n)
	return n, err
}
