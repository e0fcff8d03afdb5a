#include "src/core/certificate.h"

#include <charconv>
#include <string_view>

#include "src/broker/securelog.h"

namespace watchit {

namespace {

// Feeds `field` and then the '|' separator into a running FNV-1a hash.
uint64_t FeedField(uint64_t hash, std::string_view field) {
  return witbroker::Fnv1a("|", witbroker::Fnv1a(field, hash));
}

// Feeds the decimal digits of `value` (the bytes std::to_string writes).
uint64_t FeedNumber(uint64_t hash, uint64_t value) {
  char digits[20];  // UINT64_MAX has 20 decimal digits
  char* end = std::to_chars(digits, digits + sizeof(digits), value).ptr;
  return witbroker::Fnv1a(std::string_view(digits, static_cast<size_t>(end - digits)), hash);
}

}  // namespace

std::string CertStatusName(CertStatus status) {
  switch (status) {
    case CertStatus::kValid:
      return "valid";
    case CertStatus::kExpired:
      return "expired";
    case CertStatus::kRevoked:
      return "revoked";
    case CertStatus::kForged:
      return "forged";
    case CertStatus::kUnknown:
      return "unknown";
  }
  return "?";
}

uint64_t CertificateAuthority::Sign(const Certificate& cert) const {
  // FNV-1a chains, so hashing the pieces in order equals hashing
  // "admin|machine|ticket|class|serial|issued|expires" as one string.
  uint64_t hash = secret_;
  hash = FeedField(hash, cert.admin);
  hash = FeedField(hash, cert.machine);
  hash = FeedField(hash, cert.ticket_id);
  hash = FeedField(hash, cert.ticket_class);
  hash = FeedNumber(hash, cert.serial);
  hash = witbroker::Fnv1a("|", hash);
  hash = FeedNumber(hash, cert.issued_ns);
  hash = witbroker::Fnv1a("|", hash);
  return FeedNumber(hash, cert.expires_ns);
}

Certificate CertificateAuthority::Issue(const std::string& admin, const std::string& machine,
                                        const std::string& ticket_id,
                                        const std::string& ticket_class, uint64_t now_ns,
                                        uint64_t lifetime_ns) {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  Certificate cert;
  cert.serial = next_serial_++;
  cert.admin = admin;
  cert.machine = machine;
  cert.ticket_id = ticket_id;
  cert.ticket_class = ticket_class;
  cert.issued_ns = now_ns;
  cert.expires_ns = now_ns + lifetime_ns;
  cert.signature = Sign(cert);
  issued_[cert.serial] = cert;
  if (issue_listener_) {
    issue_listener_(cert);
  }
  return cert;
}

CertStatus CertificateAuthority::Validate(const Certificate& cert, uint64_t now_ns) const {
  // The signature depends only on the presented cert and the immutable
  // secret, so it is checked before the lock, which guards only the books.
  const bool forged = cert.signature != Sign(cert);
  bool known = false;
  bool revoked = false;
  {
    std::lock_guard<witobs::ProfiledMutex> lock(mu_);
    known = issued_.count(cert.serial) > 0;
    revoked = revoked_.count(cert.serial) > 0;
  }
  if (!known) {
    return CertStatus::kUnknown;
  }
  if (forged) {
    return CertStatus::kForged;
  }
  if (revoked) {
    return CertStatus::kRevoked;
  }
  if (now_ns >= cert.expires_ns) {
    return CertStatus::kExpired;
  }
  return CertStatus::kValid;
}

void CertificateAuthority::Revoke(uint64_t serial) {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  bool newly = revoked_.emplace(serial, true).second;
  if (newly && revoke_listener_) {
    revoke_listener_(serial);
  }
}

bool CertificateAuthority::IsRevoked(uint64_t serial) const {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  return revoked_.count(serial) > 0;
}

size_t CertificateAuthority::issued_count() const {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  return issued_.size();
}

size_t CertificateAuthority::revoked_count() const {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  return revoked_.size();
}

std::vector<Certificate> CertificateAuthority::IssuedSnapshot() const {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  std::vector<Certificate> certs;
  certs.reserve(issued_.size());
  for (const auto& [serial, cert] : issued_) {
    (void)serial;
    certs.push_back(cert);
  }
  return certs;
}

std::vector<uint64_t> CertificateAuthority::RevokedSnapshot() const {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  std::vector<uint64_t> serials;
  serials.reserve(revoked_.size());
  for (const auto& [serial, flag] : revoked_) {
    (void)flag;
    serials.push_back(serial);
  }
  return serials;
}

void CertificateAuthority::set_issue_listener(IssueListener listener) {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  issue_listener_ = std::move(listener);
}

void CertificateAuthority::set_revoke_listener(RevokeListener listener) {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  revoke_listener_ = std::move(listener);
}

witos::Status CertificateAuthority::RestoreIssued(const Certificate& cert) {
  if (cert.signature != Sign(cert)) {
    return witos::Err::kInval;
  }
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  if (!issued_.emplace(cert.serial, cert).second) {
    return witos::Err::kExist;
  }
  if (cert.serial >= next_serial_) {
    next_serial_ = cert.serial + 1;
  }
  return witos::Status::Ok();
}

void CertificateAuthority::RestoreRevoked(uint64_t serial) {
  std::lock_guard<witobs::ProfiledMutex> lock(mu_);
  revoked_[serial] = true;
}

}  // namespace watchit
