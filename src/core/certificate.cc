#include "src/core/certificate.h"

#include <string_view>

#include "src/broker/securelog.h"

namespace watchit {

namespace {

// One FNV-1a step, the same as witbroker::Fnv1a applies per byte. Feeding
// bytes here, not through Fnv1a calls, keeps Sign free of per-piece calls
// and buffers; tests/certificate_test.cc checks it against Fnv1a over the
// built layout.
uint64_t FeedByte(uint64_t hash, uint64_t byte) {
  return (hash ^ byte) * 1099511628211ull;
}

// Feeds `value` as 8 little-endian bytes.
uint64_t FeedNumber(uint64_t hash, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash = FeedByte(hash, (value >> (8 * i)) & 0xff);
  }
  return hash;
}

// Feeds `field` behind its length as a LEB128 varint, so no choice of field
// contents can move bytes from one field into the next.
uint64_t FeedField(uint64_t hash, std::string_view field) {
  uint64_t len = field.size();
  do {
    uint64_t byte = len & 0x7f;
    len >>= 7;
    hash = FeedByte(hash, len == 0 ? byte : byte | 0x80);
  } while (len != 0);
  return witbroker::Fnv1a(field, hash);
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
  // Keyed FNV-1a over the byte layout in certificate.h.
  uint64_t hash = secret_;
  hash = FeedField(hash, cert.admin);
  hash = FeedField(hash, cert.machine);
  hash = FeedField(hash, cert.ticket_id);
  hash = FeedField(hash, cert.ticket_class);
  hash = FeedNumber(hash, cert.serial);
  hash = FeedNumber(hash, cert.issued_ns);
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
