#include "src/container/spec.h"

namespace witcontain {

PerforatedContainerSpec PerforatedContainerSpec::Traditional(std::string name) {
  PerforatedContainerSpec spec;
  spec.name = std::move(name);
  spec.isolate = {witos::NsType::kUts, witos::NsType::kMnt, witos::NsType::kNet,
                  witos::NsType::kPid, witos::NsType::kIpc, witos::NsType::kUid};
  spec.fs.kind = FsView::Kind::kPrivate;
  spec.net.allowed.clear();
  return spec;
}

std::shared_ptr<const ContainerImage> ContainerImage::Publish(PerforatedContainerSpec spec) {
  auto image = std::make_shared<ContainerImage>();
  image->policy = spec.fs.CompileEffectivePolicy();
  image->spec = std::move(spec);
  return image;
}

const witos::CapabilitySet& ForbiddenCaps() {
  static const witos::CapabilitySet kForbidden = {
      witos::Capability::kSysChroot, witos::Capability::kSysPtrace,
      witos::Capability::kMknod,     witos::Capability::kSysRawMem,
      witos::Capability::kSysModule, witos::Capability::kSysAdmin,
  };
  return kForbidden;
}

}  // namespace witcontain
