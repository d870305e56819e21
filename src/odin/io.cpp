#include "odin/io.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cstring>
#include <vector>

namespace pyhpc::odin {

namespace {

constexpr std::uint64_t kMagic = 0x4f44494e41525259ULL;  // "ODINARRY"
constexpr int kMaxDims = 4;

struct Header {
  std::uint64_t magic = kMagic;
  std::uint64_t elem_size = sizeof(double);
  std::int64_t ndim = 0;
  std::int64_t dims[kMaxDims] = {0, 0, 0, 0};
};

// RAII fd wrapper.
class File {
 public:
  File(const std::string& path, int flags, mode_t mode = 0644)
      : fd_(::open(path.c_str(), flags, mode)) {
    require(fd_ >= 0, "odin io: cannot open ", path);
  }
  ~File() {
    if (fd_ >= 0) ::close(fd_);
  }
  File(const File&) = delete;
  File& operator=(const File&) = delete;

  void pwrite_all(const void* buf, std::size_t n, off_t off) const {
    const char* p = static_cast<const char*>(buf);
    while (n > 0) {
      const ssize_t w = ::pwrite(fd_, p, n, off);
      require(w > 0, "odin io: write failed");
      p += w;
      off += w;
      n -= static_cast<std::size_t>(w);
    }
  }

  void pread_all(void* buf, std::size_t n, off_t off) const {
    char* p = static_cast<char*>(buf);
    while (n > 0) {
      const ssize_t r = ::pread(fd_, p, n, off);
      require(r > 0, "odin io: short read (file truncated?)");
      p += r;
      off += r;
      n -= static_cast<std::size_t>(r);
    }
  }

 private:
  int fd_;
};

// File offset of the element at row-major global offset g.
off_t data_offset(index_t g) {
  return static_cast<off_t>(sizeof(Header)) +
         static_cast<off_t>(g) * static_cast<off_t>(sizeof(double));
}

}  // namespace

void write_distributed(const DistArray<double>& a, const std::string& path) {
  const Shape& shape = a.shape();
  require(shape.ndim() <= kMaxDims, "odin io: too many dimensions");
  auto& comm = a.dist().comm();

  // No rank truncates until every rank has entered the write: a rank may
  // still be reading this path (read_distributed ends without a barrier),
  // and truncating under it would hand it zeros or a short read.
  comm.barrier();
  if (comm.rank() == 0) {
    Header h;
    h.ndim = shape.ndim();
    for (int d = 0; d < shape.ndim(); ++d) h.dims[d] = shape.extent(d);
    File f(path, O_WRONLY | O_CREAT | O_TRUNC);
    f.pwrite_all(&h, sizeof(h), 0);
    // Pre-size the data region so concurrent pwrites land inside the file.
    const off_t end =
        static_cast<off_t>(sizeof(Header)) +
        static_cast<off_t>(shape.count()) * static_cast<off_t>(sizeof(double));
    if (shape.count() > 0) {
      const double zero = 0.0;
      f.pwrite_all(&zero, sizeof(zero), end - static_cast<off_t>(sizeof(double)));
    }
  }
  comm.barrier();  // header visible before anyone writes data

  File f(path, O_WRONLY);
  // One pwrite per run of consecutive file offsets.
  const auto view = a.local_view();
  a.for_each_global_run([&](index_t g, index_t lo, index_t len) {
    f.pwrite_all(view.data() + lo,
                 static_cast<std::size_t>(len) * sizeof(double),
                 data_offset(g));
  });
  comm.barrier();  // file complete before anyone returns
}

Shape read_stored_shape(comm::Communicator& comm, const std::string& path) {
  Header h;
  if (comm.rank() == 0) {
    File f(path, O_RDONLY);
    f.pread_all(&h, sizeof(h), 0);
    require(h.magic == kMagic, "odin io: bad magic in ", path);
    require(h.elem_size == sizeof(double), "odin io: element size mismatch");
    require(h.ndim >= 0 && h.ndim <= kMaxDims, "odin io: bad rank");
  }
  comm.broadcast(std::span<Header>(&h, 1), 0);
  std::vector<index_t> dims;
  for (int d = 0; d < h.ndim; ++d) dims.push_back(h.dims[d]);
  return Shape(dims);
}

DistArray<double> read_distributed(const Distribution& dist,
                                   const std::string& path) {
  auto& comm = dist.comm();
  const Shape stored = read_stored_shape(comm, path);
  require<ShapeError>(stored == dist.global_shape(),
                      "odin io: stored shape ", stored,
                      " does not match requested distribution ",
                      dist.global_shape());

  DistArray<double> a(dist);
  File f(path, O_RDONLY);
  // Same runs as the writer.
  auto view = a.local_view();
  a.for_each_global_run([&](index_t g, index_t lo, index_t len) {
    f.pread_all(view.data() + lo,
                static_cast<std::size_t>(len) * sizeof(double),
                data_offset(g));
  });
  return a;
}

}  // namespace pyhpc::odin
