#include "src/os/vfs.h"

#include <algorithm>
#include <forward_list>
#include <vector>

#include "src/os/path.h"

namespace witos {

namespace {

constexpr int kMaxSymlinkDepth = 40;

// Writes the vfs-space path of canonical jail-space `jail_path` into `out`:
// `root` itself for "/", else JoinPath(root, jail_path minus its '/').
void MapToVfs(const std::string& root, std::string_view jail_path, std::string* out) {
  out->assign(root);
  if (jail_path == "/") {
    return;
  }
  std::string_view rel = jail_path.substr(1);
  if (!out->empty() && out->back() != '/') {
    out->push_back('/');
  }
  out->append(rel);
}

}  // namespace

Status Vfs::AddMount(NsId mnt_ns, MountEntry entry) {
  entry.mountpoint = NormalizePath(entry.mountpoint);
  entry.fs_root = NormalizePath(entry.fs_root);
  auto& table = registry_->Mnt(mnt_ns).table;
  for (const auto& existing : table) {
    if (existing.mountpoint == entry.mountpoint) {
      return Err::kBusy;
    }
  }
  table.push_back(std::move(entry));
  return Status::Ok();
}

Status Vfs::RemoveMount(NsId mnt_ns, const std::string& mountpoint) {
  std::string norm = NormalizePath(mountpoint);
  auto& table = registry_->Mnt(mnt_ns).table;
  // Refuse to unmount a mount that has submounts.
  for (const auto& entry : table) {
    if (entry.mountpoint != norm && PathIsUnder(entry.mountpoint, norm)) {
      return Err::kBusy;
    }
  }
  for (auto it = table.begin(); it != table.end(); ++it) {
    if (it->mountpoint == norm) {
      table.erase(it);
      return Status::Ok();
    }
  }
  return Err::kInval;
}

size_t Vfs::RemoveMountsUnder(NsId mnt_ns, const std::string& prefix) {
  std::string norm = NormalizePath(prefix);
  auto& table = registry_->Mnt(mnt_ns).table;
  size_t before = table.size();
  std::erase_if(table,
                [&norm](const MountEntry& entry) { return PathIsUnder(entry.mountpoint, norm); });
  return before - table.size();
}

const MountEntry* Vfs::FindMount(const std::vector<MountEntry>& table,
                                 std::string_view vfs_path) {
  const MountEntry* best = nullptr;
  for (const auto& entry : table) {
    if (PathIsUnder(vfs_path, entry.mountpoint) &&
        (best == nullptr || entry.mountpoint.size() > best->mountpoint.size())) {
      best = &entry;
    }
  }
  return best;
}

Result<ResolvedPath> Vfs::Resolve(const VfsContext& ctx, std::string_view user_path,
                                  bool follow_final, bool allow_missing_final) const {
  if (user_path.size() > 4096) {
    return Err::kNameTooLong;
  }
  const std::vector<MountEntry>& mounts = registry_->Mnt(ctx.mnt_ns).table;
  const XclNamespace* xcl = ctx.xcl_ns != kNoNs ? &registry_->Xcl(ctx.xcl_ns) : nullptr;
  // XCL enforcement: the vfs path must not fall in an excluded subtree,
  // "disregarding the user privileges" (paper §5.6).
  auto excluded = [&](const std::string& vfs_path) {
    if (xcl == nullptr || !xcl->IsExcluded(vfs_path)) {
      return false;
    }
    if (audit_ != nullptr) {
      audit_->Append(AuditEvent::kXclDenied, ctx.pid, ctx.cred.uid, vfs_path, 0);
    }
    return true;
  };

  // Pending jail-space components, the next one at the back. They view
  // into user_path, ctx.cwd or a symlink target kept alive in `targets`.
  std::vector<std::string_view> todo;
  todo.reserve(16);
  std::forward_list<std::string> targets;
  auto push_all = [&todo](std::string_view p) {
    size_t first = todo.size();
    size_t pos = 0;
    for (std::string_view comp = NextPathComponent(p, &pos); !comp.empty();
         comp = NextPathComponent(p, &pos)) {
      todo.push_back(comp);
    }
    std::reverse(todo.begin() + static_cast<std::ptrdiff_t>(first), todo.end());
  };
  // The relative path goes on first and the cwd on top: the cwd components
  // must be consumed before the path's.
  push_all(user_path);
  if (!IsAbsolutePath(user_path)) {
    push_all(ctx.cwd);
  }

  // `cur` is the jail-space path resolved so far and `vfs_cur` its
  // vfs-space form; the other buffers are reused by every component.
  std::string cur = "/";
  std::string vfs_cur = ctx.root;
  std::string next;
  std::string vfs_next;
  std::string fs_path;
  // Stats `vfs_path` on the mount covering it, leaving the fs-local path in
  // `fs_path` and the mount in `*mount` (null if none: ENOENT).
  auto stat_vfs = [&](const std::string& vfs_path, const MountEntry** mount) -> Result<Stat> {
    *mount = FindMount(mounts, vfs_path);
    if (*mount == nullptr) {
      return Err::kNoEnt;
    }
    RebasePathInto(vfs_path, (*mount)->mountpoint, (*mount)->fs_root, &fs_path);
    return (*mount)->fs->GetAttr(fs_path, ctx.cred);
  };
  auto resolved = [](std::string jail_path, std::string vfs_path, const MountEntry& mount,
                     bool exists) {
    ResolvedPath out;
    out.jail_path = std::move(jail_path);
    out.vfs_path = std::move(vfs_path);
    out.fs = mount.fs;
    RebasePathInto(out.vfs_path, mount.mountpoint, mount.fs_root, &out.fs_path);
    out.read_only = mount.read_only;
    out.exists = exists;
    return out;
  };

  int symlink_depth = 0;
  while (!todo.empty()) {
    std::string_view comp = todo.back();
    todo.pop_back();
    if (comp == "..") {
      // Clamp at the jail root, as chroot does.
      if (cur != "/") {
        cur = Dirname(cur);
        MapToVfs(ctx.root, cur, &vfs_cur);
      }
      continue;
    }
    next.assign(cur);
    if (cur != "/") {
      next.push_back('/');
    }
    next.append(comp);
    MapToVfs(ctx.root, next, &vfs_next);
    bool is_final = todo.empty();
    // XCL enforcement happens *before* the lookup so that exclusion masks
    // even the existence of the subtree ("cannot be accessed by processes
    // that belong to that namespace, disregarding the user privileges").
    if (excluded(vfs_next)) {
      return Err::kAcces;
    }
    const MountEntry* mount = nullptr;
    auto st = stat_vfs(vfs_next, &mount);
    if (!st.ok()) {
      if (st.error() == Err::kNoEnt && is_final && allow_missing_final) {
        // Parent must exist and be a directory.
        const MountEntry* parent_mount = nullptr;
        auto parent_st = stat_vfs(vfs_cur, &parent_mount);
        if (!parent_st.ok()) {
          return parent_st.error();
        }
        if (parent_st->type != FileType::kDirectory) {
          return Err::kNotDir;
        }
        if (mount == nullptr) {
          return Err::kNoEnt;
        }
        return resolved(std::move(next), std::move(vfs_next), *mount, /*exists=*/false);
      }
      return st.error();
    }
    if (st->type == FileType::kSymlink && (!is_final || follow_final)) {
      if (++symlink_depth > kMaxSymlinkDepth) {
        return Err::kLoop;
      }
      WITOS_ASSIGN_OR_RETURN(std::string target, mount->fs->ReadLink(fs_path, ctx.cred));
      if (IsAbsolutePath(target)) {
        // Absolute targets restart at the *jail* root — chroot semantics.
        cur = "/";
        vfs_cur = ctx.root;
      }
      targets.push_front(std::move(target));
      push_all(targets.front());
      continue;
    }
    if (!is_final && st->type != FileType::kDirectory) {
      return Err::kNotDir;
    }
    cur.swap(next);
    vfs_cur.swap(vfs_next);
  }

  if (excluded(vfs_cur)) {
    return Err::kAcces;
  }
  const MountEntry* mount = FindMount(mounts, vfs_cur);
  if (mount == nullptr) {
    return Err::kNoEnt;
  }
  return resolved(std::move(cur), std::move(vfs_cur), *mount, /*exists=*/true);
}

}  // namespace witos
