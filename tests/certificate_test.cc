// Certificate authority tests: the streamed signature against a string-built
// oracle of its byte layout, field-shifting forgeries, verdict precedence,
// and Validate racing Issue/Revoke.

#include "src/core/certificate.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "src/broker/securelog.h"

namespace watchit {
namespace {

constexpr uint64_t kSecret = 0x57a7c417u;  // CertificateAuthority's default
constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();

void AppendU64(std::string* out, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    *out += static_cast<char>((value >> (8 * i)) & 0xff);
  }
}

void AppendLeb128(std::string* out, uint64_t value) {
  while (value >= 0x80) {
    *out += static_cast<char>((value & 0x7f) | 0x80);
    value >>= 7;
  }
  *out += static_cast<char>(value);
}

// The signature as specified: FNV-1a over one built string holding each
// string field behind its LEB128 length, then the three numbers as 8-byte
// little-endian values.
uint64_t StringBuiltSignature(const Certificate& cert, uint64_t secret) {
  std::string material;
  for (const std::string* field : {&cert.admin, &cert.machine, &cert.ticket_id,
                                   &cert.ticket_class}) {
    AppendLeb128(&material, field->size());
    material += *field;
  }
  AppendU64(&material, cert.serial);
  AppendU64(&material, cert.issued_ns);
  AppendU64(&material, cert.expires_ns);
  return witbroker::Fnv1a(material, secret);
}

std::string RandomField(std::mt19937_64& rng) {
  static const std::array<std::string, 6> kPieces = {"", "|", "admin", "||", "T-3", "pc-7"};
  std::string field;
  int pieces = static_cast<int>(rng() % 4);  // 0 pieces = empty field
  for (int i = 0; i < pieces; ++i) {
    field += kPieces[rng() % kPieces.size()];
  }
  return field;
}

uint64_t RandomNumber(std::mt19937_64& rng) {
  switch (rng() % 4) {
    case 0:
      return 0;
    case 1:
      return kMax;
    case 2:
      return rng() % 1000;
    default:
      return rng();
  }
}

TEST(CertificateSignTest, MatchesStringBuiltSignatureOnSeededCerts) {
  std::mt19937_64 rng(20261018);
  for (int i = 0; i < 1000; ++i) {
    Certificate cert;
    cert.admin = RandomField(rng);
    cert.machine = RandomField(rng);
    cert.ticket_id = RandomField(rng);
    cert.ticket_class = RandomField(rng);
    cert.serial = RandomNumber(rng);
    cert.issued_ns = RandomNumber(rng);
    cert.expires_ns = RandomNumber(rng);
    cert.signature = StringBuiltSignature(cert, kSecret);
    // RestoreIssued accepts exactly the certs whose signature equals Sign's.
    CertificateAuthority ca(kSecret);
    ASSERT_TRUE(ca.RestoreIssued(cert).ok()) << "cert " << i << " admin='" << cert.admin
                                             << "' serial=" << cert.serial;
    Certificate flipped = cert;
    flipped.signature ^= 1;
    CertificateAuthority other(kSecret);
    EXPECT_EQ(other.RestoreIssued(flipped).error(), witos::Err::kInval);
  }
}

TEST(CertificateSignTest, ExtremeValuesSignAndValidate) {
  CertificateAuthority ca(kSecret);
  // Field lengths that need one, two and three varint bytes.
  for (size_t len : {size_t{127}, size_t{128}, size_t{20000}}) {
    Certificate long_field = ca.Issue(std::string(len, 'a'), "pc", "TKT", "T-1", 0, 10);
    EXPECT_EQ(long_field.signature, StringBuiltSignature(long_field, kSecret)) << len;
  }
  Certificate cert = ca.Issue("a|b", "", "TKT", "T-1", 0, kMax);
  EXPECT_EQ(cert.signature, StringBuiltSignature(cert, kSecret));
  EXPECT_EQ(ca.Validate(cert, 0), CertStatus::kValid);
  EXPECT_EQ(ca.Validate(cert, kMax), CertStatus::kExpired);
  Certificate tampered = cert;
  tampered.machine = "pc";
  EXPECT_EQ(ca.Validate(tampered, 0), CertStatus::kForged);
}

TEST(CertificateSignTest, FieldShiftingForgeryIsRejected) {
  // Moving a '|'-containing suffix of one field into the next must not keep
  // the signature valid: admin "alice|ops" on "pc1" is not admin "alice" on
  // "ops|pc1".
  CertificateAuthority ca(kSecret);
  Certificate cert = ca.Issue("alice|ops", "pc1", "TKT-1", "T-1", 0, 1000);
  ASSERT_EQ(ca.Validate(cert, 0), CertStatus::kValid);
  Certificate shifted = cert;
  shifted.admin = "alice";
  shifted.machine = "ops|pc1";
  EXPECT_EQ(ca.Validate(shifted, 0), CertStatus::kForged);
  Certificate shifted_class = cert;
  shifted_class.ticket_id = "TKT-1|T-1";
  shifted_class.ticket_class = "";
  EXPECT_EQ(ca.Validate(shifted_class, 0), CertStatus::kForged);
}

TEST(CertificateSignTest, IssuedCertsCarryTheStringBuiltSignature) {
  CertificateAuthority ca(kSecret);
  for (int i = 0; i < 50; ++i) {
    Certificate cert = ca.Issue("admin" + std::to_string(i), "pc", "TKT-" + std::to_string(i),
                                "T-" + std::to_string(i % 11 + 1), uint64_t{1000} * static_cast<uint64_t>(i),
                                5000);
    EXPECT_EQ(cert.signature, StringBuiltSignature(cert, kSecret));
  }
}

// Each verdict condition a presented cert can meet, in precedence order.
enum Condition : unsigned { kUnknownBit = 1, kForgedBit = 2, kRevokedBit = 4, kExpiredBit = 8 };

TEST(CertificateValidateTest, EveryCombinationResolvesByPrecedence) {
  for (unsigned mask = 0; mask < 16; ++mask) {
    CertificateAuthority ca(kSecret);
    Certificate cert{.serial = 42,
                     .admin = "alice",
                     .machine = "pc",
                     .ticket_id = "TKT-1",
                     .ticket_class = "T-1",
                     .issued_ns = 100,
                     .expires_ns = 200};
    cert.signature = StringBuiltSignature(cert, kSecret);
    if ((mask & kUnknownBit) == 0) {
      ASSERT_TRUE(ca.RestoreIssued(cert).ok());
    }
    if ((mask & kRevokedBit) != 0) {
      ca.Revoke(cert.serial);
    }
    Certificate presented = cert;
    if ((mask & kForgedBit) != 0) {
      presented.ticket_class = "T-11";  // tampered after signing
    }
    uint64_t now = (mask & kExpiredBit) != 0 ? cert.expires_ns : cert.expires_ns - 1;
    CertStatus want = CertStatus::kValid;
    if ((mask & kUnknownBit) != 0) {
      want = CertStatus::kUnknown;
    } else if ((mask & kForgedBit) != 0) {
      want = CertStatus::kForged;
    } else if ((mask & kRevokedBit) != 0) {
      want = CertStatus::kRevoked;
    } else if ((mask & kExpiredBit) != 0) {
      want = CertStatus::kExpired;
    }
    EXPECT_EQ(ca.Validate(presented, now), want) << "condition mask " << mask;
  }
}

// Four validators run beside one thread that issues and revokes. Each
// slot's state moves published -> revoking -> revoked; a validator reads
// the state before and after its call and checks the verdict against both.
TEST(CertificateValidateTest, ConcurrentValidateMatchesIssueAndRevoke) {
  constexpr size_t kCerts = 2000;
  constexpr uint64_t kNow = 10;
  enum State : int { kPublished = 0, kRevoking = 1, kRevoked = 2 };
  CertificateAuthority ca(kSecret);
  std::vector<Certificate> certs(kCerts);
  std::vector<std::atomic<int>> states(kCerts);
  std::atomic<size_t> published{0};
  std::atomic<bool> done{false};
  std::atomic<uint64_t> mismatches{0};
  std::atomic<uint64_t> checks{0};

  std::thread issuer([&] {
    for (size_t i = 0; i < kCerts; ++i) {
      certs[i] = ca.Issue("admin", "pc", "TKT-" + std::to_string(i), "T-1", kNow, 1000);
      states[i].store(kPublished, std::memory_order_relaxed);
      published.store(i + 1, std::memory_order_release);
      if (i % 2 == 1) {  // revoke the previous cert while this one is fresh
        states[i - 1].store(kRevoking, std::memory_order_release);
        ca.Revoke(certs[i - 1].serial);
        states[i - 1].store(kRevoked, std::memory_order_release);
      }
    }
    done.store(true, std::memory_order_release);
  });

  std::vector<std::thread> validators;
  for (int t = 0; t < 4; ++t) {
    validators.emplace_back([&, t] {
      std::mt19937 rng(static_cast<uint32_t>(t + 1));
      // Keep validating after the issuer ends, so every thread checks at
      // least kMinChecks certs however the threads are scheduled.
      constexpr int kMinChecks = 500;
      for (int local = 0; !done.load(std::memory_order_acquire) || local < kMinChecks;) {
        size_t n = published.load(std::memory_order_acquire);
        if (n == 0) {
          continue;
        }
        size_t i = rng() % n;
        const Certificate& cert = certs[i];
        int before = states[i].load(std::memory_order_acquire);
        CertStatus status = ca.Validate(cert, kNow);
        int after = states[i].load(std::memory_order_acquire);
        bool ok = (before == kRevoked && status == CertStatus::kRevoked) ||
                  (after == kPublished && status == CertStatus::kValid) ||
                  (before != kRevoked && after != kPublished &&
                   (status == CertStatus::kValid || status == CertStatus::kRevoked));
        Certificate forged = cert;
        forged.admin = "mallory";
        ok = ok && ca.Validate(forged, kNow) == CertStatus::kForged;
        Certificate unknown = cert;
        unknown.serial = kMax;
        ok = ok && ca.Validate(unknown, kNow) == CertStatus::kUnknown;
        if (!ok) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
        checks.fetch_add(1, std::memory_order_relaxed);
        ++local;
      }
    });
  }
  issuer.join();
  for (std::thread& v : validators) {
    v.join();
  }
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GE(checks.load(), 4u * 500u);
  EXPECT_EQ(ca.issued_count(), kCerts);
  EXPECT_EQ(ca.revoked_count(), kCerts / 2);
}

}  // namespace
}  // namespace watchit
