#include "util/mapped_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace skewsearch {

namespace {

Status ErrnoError(const std::string& what, const std::string& path) {
  return Status::IOError(what + " '" + path + "': " + std::strerror(errno));
}

/// Reads the already-opened \p fd (size \p size) into \p out in full.
Status ReadWhole(int fd, const std::string& path, size_t size,
                 std::vector<uint8_t>* out) {
  out->resize(size);
  size_t done = 0;
  while (done < size) {
    ssize_t got = ::pread(fd, out->data() + done, size - done,
                          static_cast<off_t>(done));
    if (got < 0) {
      if (errno == EINTR) continue;
      return ErrnoError("read of", path);
    }
    if (got == 0) {
      return Status::IOError("file '" + path + "' shrank while reading");
    }
    done += static_cast<size_t>(got);
  }
  return Status::OK();
}

}  // namespace

MappedFile::MappedFile(MappedFile&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      mapped_(std::exchange(other.mapped_, false)),
      heap_(std::move(other.heap_)) {}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    Release();
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
    mapped_ = std::exchange(other.mapped_, false);
    heap_ = std::move(other.heap_);
  }
  return *this;
}

MappedFile::~MappedFile() { Release(); }

void MappedFile::Release() {
  if (mapped_ && data_ != nullptr && size_ > 0) {
    ::munmap(const_cast<uint8_t*>(data_), size_);
  }
  data_ = nullptr;
  size_ = 0;
  mapped_ = false;
  heap_.clear();
  heap_.shrink_to_fit();
}

Result<MappedFile> MappedFile::Open(const std::string& path,
                                    const Options& options) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return ErrnoError("cannot open", path);
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    Status status = ErrnoError("cannot stat", path);
    ::close(fd);
    return status;
  }
  if (!S_ISREG(st.st_mode)) {
    ::close(fd);
    return Status::IOError("'" + path + "' is not a regular file");
  }
  const size_t size = static_cast<size_t>(st.st_size);

  MappedFile file;
  if (size == 0) {
    ::close(fd);
    return file;  // valid empty view; mapped() reports false
  }

  if (!options.force_heap) {
    void* base = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (base != MAP_FAILED) {
      ::close(fd);
      file.data_ = static_cast<const uint8_t*>(base);
      file.size_ = size;
      file.mapped_ = true;
      // Advisory: a failing madvise leaves a working mapping.
      (void)::madvise(base, size, MADV_RANDOM);
      return file;
    }
  }

  // Heap fallback: same bytes, materialized. malloc'd storage is at
  // least 16-byte aligned, which satisfies every in-file section type
  // (u32/u64); the 64-byte section alignment is a cache-line layout
  // property, not a correctness requirement.
  Status read = ReadWhole(fd, path, size, &file.heap_);
  ::close(fd);
  if (!read.ok()) return read;
  file.data_ = file.heap_.data();
  file.size_ = size;
  file.mapped_ = false;
  return file;
}

}  // namespace skewsearch
