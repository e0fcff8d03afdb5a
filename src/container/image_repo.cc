#include "src/container/image_repo.h"

#include <mutex>

namespace witcontain {

void ImageRepository::Register(const std::string& ticket_class, PerforatedContainerSpec spec) {
  std::shared_ptr<const ContainerImage> image = ContainerImage::Publish(std::move(spec));
  std::unique_lock lock(mu_);
  images_[ticket_class] = std::move(image);
}

std::shared_ptr<const ContainerImage> ImageRepository::Image(
    const std::string& ticket_class) const {
  std::shared_lock lock(mu_);
  auto it = images_.find(ticket_class);
  return it == images_.end() ? nullptr : it->second;
}

witos::Result<PerforatedContainerSpec> ImageRepository::Lookup(
    const std::string& ticket_class) const {
  std::shared_ptr<const ContainerImage> image = Image(ticket_class);
  if (image == nullptr) {
    return witos::Err::kNoEnt;
  }
  return image->spec;
}

void ImageRepository::ForEach(
    const std::function<void(const std::string&, PerforatedContainerSpec*)>& fn) {
  std::unique_lock lock(mu_);
  for (auto& [name, image] : images_) {
    PerforatedContainerSpec spec = image->spec;
    fn(name, &spec);
    image = ContainerImage::Publish(std::move(spec));
  }
}

std::vector<std::string> ImageRepository::Classes() const {
  std::shared_lock lock(mu_);
  std::vector<std::string> out;
  out.reserve(images_.size());
  for (const auto& [name, image] : images_) {
    out.push_back(name);
  }
  return out;
}

size_t ImageRepository::size() const {
  std::shared_lock lock(mu_);
  return images_.size();
}

}  // namespace witcontain
