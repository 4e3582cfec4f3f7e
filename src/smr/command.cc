#include "src/smr/command.h"

#include <algorithm>

#include "src/common/check.h"

namespace smr {

const char* OpName(Op op) {
  switch (op) {
    case Op::kNoOp:
      return "noop";
    case Op::kGet:
      return "get";
    case Op::kPut:
      return "put";
    case Op::kRmw:
      return "rmw";
    case Op::kScan:
      return "scan";
    case Op::kMPut:
      return "mput";
    case Op::kBatch:
      return "batch";
    case Op::kRange:
      return "range";
  }
  return "?";
}

size_t Command::PayloadSize() const {
  size_t n = key.size() + value.size();
  for (const auto& k : more_keys) {
    n += k.size();
  }
  return n;
}

Command Command::Decode(codec::Reader& r) {
  Command c;
  DecodeInto(r, c);
  return c;
}

void Command::DecodeInto(codec::Reader& r, Command& out) {
  out.client = r.Varint();
  out.seq = r.Varint();
  out.op = static_cast<Op>(r.U8());
  std::string_view key = r.BytesView();
  out.key.assign(key.data(), key.size());
  uint64_t n = r.Varint();
  if (n > r.remaining()) {
    r.Fail();  // more keys than bytes left
    return;
  }
  out.more_keys.resize(n);
  for (std::string& k : out.more_keys) {
    std::string_view v = r.BytesView();
    k.assign(v.data(), v.size());
  }
  std::string_view value = r.BytesView();
  out.value.Assign(value.data(), value.size());
}

bool operator==(const Command& a, const Command& b) {
  return a.client == b.client && a.seq == b.seq && a.op == b.op && a.key == b.key &&
         a.more_keys == b.more_keys && a.value == b.value;
}

std::string Command::ToString() const {
  std::string s = OpName(op);
  s += "(";
  s += key;
  s += ")@";
  s += std::to_string(client) + ":" + std::to_string(seq);
  return s;
}

Command MakeGet(uint64_t client, uint64_t seq, std::string key) {
  Command c;
  c.client = client;
  c.seq = seq;
  c.op = Op::kGet;
  c.key = std::move(key);
  return c;
}

Command MakePut(uint64_t client, uint64_t seq, std::string key, std::string value) {
  Command c;
  c.client = client;
  c.seq = seq;
  c.op = Op::kPut;
  c.key = std::move(key);
  c.value = std::move(value);
  return c;
}

Command MakeRmw(uint64_t client, uint64_t seq, std::string key, std::string value) {
  Command c;
  c.client = client;
  c.seq = seq;
  c.op = Op::kRmw;
  c.key = std::move(key);
  c.value = std::move(value);
  return c;
}

Command MakeNoOp() { return Command{}; }

Command MakeRange(uint64_t client, uint64_t seq, std::string begin,
                  std::string end) {
  Command c;
  c.client = client;
  c.seq = seq;
  c.op = Op::kRange;
  c.key = std::move(begin);
  c.more_keys.push_back(std::move(end));
  return c;
}

Command MakeBatch(const std::vector<Command>& cmds) {
  Command b;
  codec::Writer w;
  MakeBatchInto(cmds, w, b);
  return b;
}

void MakeBatchInto(const std::vector<Command>& cmds, codec::Writer& scratch,
                   Command& out, PayloadPool* pool) {
  CHECK(!cmds.empty());
  out.client = 0;
  out.seq = 0;
  out.op = Op::kBatch;
  scratch.Clear();
  scratch.Varint(cmds.size());
  for (const Command& c : cmds) {
    CHECK(!c.is_batch());  // no nesting
    CHECK(!c.is_noop());   // noOps conflict with everything; never batched
    c.EncodeTo(scratch);
  }
  std::string_view encoded(reinterpret_cast<const char*>(scratch.buffer().data()),
                           scratch.size());
  if (pool != nullptr) {
    out.value = pool->Make(encoded);
  } else {
    out.value.Assign(encoded.data(), encoded.size());
  }
  // Deduplicated union of sub-command keys, sized once up front; batches are
  // small, so the quadratic scan beats building a hash set.
  size_t max_keys = 0;
  for (const Command& c : cmds) {
    max_keys += 1 + c.more_keys.size();
  }
  out.more_keys.clear();
  out.more_keys.reserve(max_keys - 1);
  bool have_primary = false;
  auto add_key = [&out, &have_primary](const std::string& k) {
    if (!have_primary) {
      out.key = k;
      have_primary = true;
      return;
    }
    if (k == out.key ||
        std::find(out.more_keys.begin(), out.more_keys.end(), k) !=
            out.more_keys.end()) {
      return;
    }
    out.more_keys.push_back(k);
  };
  for (const Command& c : cmds) {
    add_key(c.key);
    for (const auto& k : c.more_keys) {
      add_key(k);
    }
  }
}

size_t UnpackBatch(const Command& batch, std::vector<Command>& out) {
  if (!batch.is_batch()) {
    return 0;
  }
  codec::Reader r(reinterpret_cast<const uint8_t*>(batch.value.data()),
                  batch.value.size());
  uint64_t n = r.Varint();
  if (!r.ok() || n == 0 || n > batch.value.size()) {
    return 0;
  }
  if (out.size() < n) {
    out.resize(n);
  }
  for (uint64_t i = 0; i < n; i++) {
    Command::DecodeInto(r, out[i]);
    // Enforce MakeBatch's no-nesting invariant on the decode path too: untrusted
    // input (the TCP runtime submits client commands verbatim) must not be able to
    // nest batches and drive Apply/UnpackBatch into unbounded recursion.
    if (!r.ok() || out[i].is_batch()) {
      return 0;
    }
  }
  return n;
}

}  // namespace smr
