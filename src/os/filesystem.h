// The abstract filesystem interface every mountable filesystem implements
// (memfs, procfs, devfs, and witfs's FUSE/ITFS interposition layers).
//
// The interface is path-based and stateless: permission checks happen in
// Open/GetAttr and data transfer takes explicit offsets. The kernel's
// per-process file-descriptor table supplies cursor state. Statelessness is
// what makes ITFS interposition and bind mounts simple compositional
// wrappers around an underlying filesystem.
//
// Paths passed to a Filesystem are always normalized and absolute *within
// that filesystem* ("/" is the filesystem's own root); the VFS handles mount
// points, chroot and symlink traversal above this interface.

#ifndef SRC_OS_FILESYSTEM_H_
#define SRC_OS_FILESYSTEM_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "src/os/credentials.h"
#include "src/os/result.h"
#include "src/os/types.h"

namespace witos {

struct FsStats {
  uint64_t total_bytes = 0;
  uint64_t used_bytes = 0;
  uint64_t inode_count = 0;
};

// Sentinel for Filesystem::Generation: "this filesystem cannot track the
// file's mutation history". Consumers must treat it as "never cache".
inline constexpr uint64_t kNoGeneration = 0;

class Filesystem {
 public:
  Filesystem() = default;
  // A copy is a different filesystem: it gets its own instance id.
  Filesystem(const Filesystem&) : instance_id_(NextInstanceId()) {}
  Filesystem& operator=(const Filesystem&) { return *this; }
  virtual ~Filesystem() = default;

  // Identity for caches keyed by filesystem (the kernel page cache). Unique
  // for the whole run, unlike the object's address, which a filesystem
  // allocated after this one is destroyed may reuse.
  uint64_t instance_id() const { return instance_id_; }

  // Filesystem type name as shown in the mount table ("ext4", "fuse.itfs",
  // "proc", ...).
  virtual std::string FsType() const = 0;

  // Whether the page cache may hold this filesystem's data. Dynamic
  // pseudo-filesystems (procfs) return false.
  virtual bool Cacheable() const { return true; }

  // Opens (and with kOpenCreate, possibly creates) the file at `path`,
  // enforcing POSIX permissions against `cred`. Returns the post-open
  // attributes. Does not allocate an fd — that is the kernel's job.
  virtual Result<Stat> Open(const std::string& path, uint32_t flags, Mode mode,
                            const Credentials& cred) = 0;

  // Reads up to `size` bytes from `offset` into `out` (replacing its
  // contents). Short reads at EOF return the remaining bytes; reading at or
  // past EOF returns 0 bytes.
  virtual Result<size_t> ReadAt(const std::string& path, uint64_t offset, size_t size,
                                std::string* out, const Credentials& cred) = 0;

  // Writes `data` at `offset`, extending the file if needed.
  virtual Result<size_t> WriteAt(const std::string& path, uint64_t offset,
                                 const std::string& data, const Credentials& cred) = 0;

  virtual Status Truncate(const std::string& path, uint64_t size, const Credentials& cred) = 0;

  // Attributes without following a final symlink (lstat semantics); the VFS
  // follows symlinks itself.
  virtual Result<Stat> GetAttr(const std::string& path, const Credentials& cred) = 0;

  virtual Result<std::vector<DirEntry>> ReadDir(const std::string& path,
                                                const Credentials& cred) = 0;

  virtual Status MkDir(const std::string& path, Mode mode, const Credentials& cred) = 0;
  virtual Status Unlink(const std::string& path, const Credentials& cred) = 0;
  virtual Status RmDir(const std::string& path, const Credentials& cred) = 0;
  virtual Status Rename(const std::string& from, const std::string& to,
                        const Credentials& cred) = 0;
  virtual Status Chmod(const std::string& path, Mode mode, const Credentials& cred) = 0;
  virtual Status Chown(const std::string& path, Uid uid, Gid gid, const Credentials& cred) = 0;

  // Creates a device node / fifo (mknod(2)). The *capability* check is the
  // kernel's; the filesystem only checks directory write permission.
  virtual Status MkNod(const std::string& path, FileType type, DeviceId rdev, Mode mode,
                       const Credentials& cred) = 0;

  // Hard link (link(2)). Default: not supported by this filesystem.
  virtual Status Link(const std::string& oldpath, const std::string& newpath,
                      const Credentials& cred) {
    (void)oldpath;
    (void)newpath;
    (void)cred;
    return Err::kNoSys;
  }

  virtual Status SymLink(const std::string& target, const std::string& linkpath,
                         const Credentials& cred) = 0;
  virtual Result<std::string> ReadLink(const std::string& path, const Credentials& cred) = 0;

  virtual Result<FsStats> StatFs() const = 0;

  // Mutation generation of the file at `path`: any value that is guaranteed
  // to change whenever the file's content or identity changes (write,
  // truncate, rename, link, chown, delete+recreate). ITFS keys its
  // signature-verdict cache on (path, generation), so the contract is
  // deliberately one-sided: generations may change spuriously (costing only
  // a cache miss) but must never stay equal across a mutation. Returns
  // kNoGeneration for missing files, directories, or filesystems that do
  // not track generations — i.e. "do not cache". This is an internal
  // metadata query: implementations charge no simulated time and perform no
  // permission checks.
  virtual uint64_t Generation(const std::string& path) const {
    (void)path;
    return kNoGeneration;
  }

 private:
  static uint64_t NextInstanceId() {
    static std::atomic<uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
  }

  const uint64_t instance_id_ = NextInstanceId();
};

}  // namespace witos

#endif  // SRC_OS_FILESYSTEM_H_
