// Transport encryption on the broker channel (paper §5.4's SSL note).

#include <gtest/gtest.h>

#include "src/broker/rpc.h"

namespace witbroker {
namespace {

RpcChannel::Handler EchoHandler() {
  return [](const RpcRequest& request) {
    RpcResponse resp;
    resp.ok = true;
    resp.payload = "echo:" + request.method;
    return resp;
  };
}

// Answers every sub-op with a default (failed) response.
RpcBatchResponse EmptyBatch(const RpcBatchRequest& batch) {
  RpcBatchResponse out;
  out.responses.resize(batch.ops.size());
  return out;
}

TEST(RpcCryptoTest, EncryptedCallRoundTrips) {
  RpcChannel channel;
  channel.Bind(EchoHandler(), EmptyBatch);
  channel.EnableEncryption(0x5ec23e7);
  EXPECT_TRUE(channel.encrypted());
  RpcRequest request;
  request.method = "ps";
  request.admin = "alice";
  auto response = channel.Call(request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->payload, "echo:ps");
}

TEST(RpcCryptoTest, CiphertextDiffersFromPlaintextLength) {
  RpcChannel plain;
  plain.Bind(EchoHandler(), EmptyBatch);
  RpcChannel encrypted;
  encrypted.Bind(EchoHandler(), EmptyBatch);
  encrypted.EnableEncryption(42);
  RpcRequest request;
  request.method = "kill";
  request.args = {"7"};
  ASSERT_TRUE(plain.Call(request).ok());
  ASSERT_TRUE(encrypted.Call(request).ok());
  // Nonce + MAC add 16 bytes per frame (two frames per call).
  EXPECT_EQ(encrypted.bytes_on_wire(), plain.bytes_on_wire() + 32);
}

TEST(RpcCryptoTest, TamperedFrameRejected) {
  RpcChannel channel;
  bool handler_ran = false;
  channel.Bind(
      [&handler_ran](const RpcRequest&) {
        handler_ran = true;
        RpcResponse resp;
        resp.ok = true;
        return resp;
      },
      EmptyBatch);
  channel.EnableEncryption(99);
  channel.CorruptNextFrameForTest();
  RpcRequest request;
  request.method = "ps";
  auto response = channel.Call(request);
  EXPECT_FALSE(response.ok());
  EXPECT_EQ(response.error(), witos::Err::kIo);
  // The MITM-corrupted request never reached the broker.
  EXPECT_FALSE(handler_ran);
}

TEST(RpcCryptoTest, UnencryptedCorruptionBreaksFraming) {
  // Without encryption, a flipped byte may corrupt fields silently or break
  // framing — the MAC is what turns tampering into a hard failure.
  RpcChannel channel;
  channel.Bind(EchoHandler(), EmptyBatch);
  channel.CorruptNextFrameForTest();
  RpcRequest request;
  request.method = "ps";
  request.ticket_id = "TKT-123456";
  (void)channel.Call(request);  // may succeed with garbled fields — no MAC
  SUCCEED();
}

TEST(RpcCryptoTest, CorruptedBatchFrameFailsAtomically) {
  // Regression: a corrupted batch frame must fail the WHOLE batch — the
  // handler never runs and the caller sees an error Result, never a partial
  // sub-response vector.
  RpcChannel channel;
  size_t handled_ops = 0;
  channel.Bind(EchoHandler(), [&handled_ops](const RpcBatchRequest& batch) {
    handled_ops += batch.ops.size();
    return EmptyBatch(batch);
  });
  channel.EnableEncryption(99);
  channel.CorruptNextFrameForTest();
  RpcBatchRequest batch;
  batch.uid = witos::kRootUid;
  batch.ticket_id = "TKT-1";
  batch.ops = {{"ps", {}}, {"kill", {"7"}}, {"reboot", {}}};
  auto response = channel.CallBatch(batch);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.error(), witos::Err::kIo);
  // Zero of the three sub-ops executed: no partial state on the broker.
  EXPECT_EQ(handled_ops, 0u);

  // The channel itself stays usable; the next batch goes through whole.
  auto retry = channel.CallBatch(batch);
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(retry->responses.size(), 3u);
  EXPECT_EQ(handled_ops, 3u);
}

TEST(RpcCryptoTest, CorruptedBatchResponseLegAlsoFailsWhole) {
  // Corruption on the response leg: the ops DID execute on the broker, but
  // the client still must not see a partial or garbled sub-response vector
  // — the whole batch reports one transport error.
  RpcChannel channel;
  size_t handled_ops = 0;
  channel.Bind(EchoHandler(), [&handled_ops](const RpcBatchRequest& batch) {
    handled_ops += batch.ops.size();
    RpcBatchResponse out;
    out.responses.resize(batch.ops.size());
    for (auto& resp : out.responses) {
      resp.ok = true;
    }
    return out;
  });
  channel.EnableEncryption(7);
  // Skip the clean request frame; flip a byte of the response frame.
  channel.CorruptNextFrameForTest(/*skip_frames=*/1);
  RpcBatchRequest batch;
  batch.uid = witos::kRootUid;
  batch.ops = {{"ps", {}}, {"kill", {"7"}}};
  auto response = channel.CallBatch(batch);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.error(), witos::Err::kIo);
  // The broker side did run — corruption happened on the way back.
  EXPECT_EQ(handled_ops, 2u);
}

TEST(RpcCryptoTest, OneSealPerBatchAmortizesCrypto) {
  // N ops in a batch pay ONE nonce+MAC per direction; N singleton calls pay
  // N of each. 16 bytes overhead per frame, 2 frames per call.
  RpcChannel batched;
  batched.Bind(EchoHandler(), EmptyBatch);
  batched.EnableEncryption(1);
  RpcChannel plain_batched;
  plain_batched.Bind(EchoHandler(), EmptyBatch);
  RpcBatchRequest batch;
  batch.uid = witos::kRootUid;
  batch.ops = {{"ps", {}}, {"kill", {"7"}}, {"read_file", {"/etc/motd"}}, {"reboot", {}}};
  ASSERT_TRUE(batched.CallBatch(batch).ok());
  ASSERT_TRUE(plain_batched.CallBatch(batch).ok());
  // +32 bytes total for the whole 4-op batch, not +32 per op.
  EXPECT_EQ(batched.bytes_on_wire(), plain_batched.bytes_on_wire() + 32);
  EXPECT_EQ(batched.frames(), 2u);
}

TEST(RpcCryptoTest, FramesUseFreshNonces) {
  RpcChannel channel;
  std::vector<std::string> seen_methods;
  channel.Bind(
      [&seen_methods](const RpcRequest& request) {
        seen_methods.push_back(request.method);
        RpcResponse resp;
        resp.ok = true;
        return resp;
      },
      EmptyBatch);
  channel.EnableEncryption(7);
  RpcRequest request;
  request.method = "ps";
  // Two identical requests: both must decrypt correctly despite distinct
  // keystreams (no keystream reuse).
  ASSERT_TRUE(channel.Call(request).ok());
  ASSERT_TRUE(channel.Call(request).ok());
  EXPECT_EQ(seen_methods, (std::vector<std::string>{"ps", "ps"}));
}

}  // namespace
}  // namespace witbroker
