// The image repository: pre-built perforated-container images keyed by
// ticket class, "held in a dedicated image repository for quick deployment"
// (paper §5.1, Figure 3). Each image is published as an immutable
// ContainerImage snapshot whose ITFS policy is compiled once, at
// publication; deploys share the snapshot instead of copying the spec and
// compiling per ticket.

#ifndef SRC_CONTAINER_IMAGE_REPO_H_
#define SRC_CONTAINER_IMAGE_REPO_H_

#include <functional>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "src/container/spec.h"
#include "src/os/result.h"

namespace witcontain {

// Thread-safe: deploy workers read snapshots while a policy loader
// republishes.
class ImageRepository {
 public:
  // Publishes `spec` (compiling its policy) as the class's image.
  void Register(const std::string& ticket_class, PerforatedContainerSpec spec);
  // The class's current snapshot, or null for an unknown class.
  std::shared_ptr<const ContainerImage> Image(const std::string& ticket_class) const;
  // A copy of the class's current spec, for callers that edit or inspect it.
  witos::Result<PerforatedContainerSpec> Lookup(const std::string& ticket_class) const;
  bool Has(const std::string& ticket_class) const { return Image(ticket_class) != nullptr; }
  std::vector<std::string> Classes() const;
  size_t size() const;

  // Applies `fn` to a copy of every registered image's spec and publishes
  // the result (policy loaders use this to append organization-wide
  // constraints). Sessions already running keep their old snapshot. `fn`
  // must not call back into the repository.
  void ForEach(const std::function<void(const std::string&, PerforatedContainerSpec*)>& fn);

 private:
  mutable std::shared_mutex mu_;
  std::map<std::string, std::shared_ptr<const ContainerImage>> images_;
};

}  // namespace witcontain

#endif  // SRC_CONTAINER_IMAGE_REPO_H_
