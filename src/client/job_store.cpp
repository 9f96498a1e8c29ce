#include "client/job_store.h"

#include <fstream>

#include "ajo/codec.h"

namespace unicore::client {

using util::Bytes;
using util::ByteView;
using util::ErrorCode;
using util::Result;
using util::Status;

namespace {
constexpr char kMagic[] = "UNICOREJOB";
constexpr std::uint32_t kVersion = 1;
}  // namespace

Bytes serialize_job(const ajo::AbstractJobObject& job) {
  util::ByteWriter w;
  w.str(kMagic);
  w.u32(kVersion);
  w.blob(ajo::encode_action(job));
  return w.take();
}

Result<ajo::AbstractJobObject> deserialize_job(ByteView image) {
  util::ByteReader r(image);
  std::string magic = r.str();
  std::uint32_t version = r.u32();
  Bytes wire = r.blob();
  if (magic != kMagic)
    return util::make_error(ErrorCode::kInvalidArgument,
                            "not a UNICORE job file");
  if (!r.ok())
    return util::make_error(ErrorCode::kInvalidArgument,
                            "truncated job file");
  if (version != kVersion)
    return util::make_error(ErrorCode::kInvalidArgument,
                            "unsupported job file version " +
                                std::to_string(version));
  auto action = ajo::decode_action(wire);
  if (!action) return action.error();
  if (!action.value()->is_job())
    return util::make_error(ErrorCode::kInvalidArgument,
                            "job file root is not a job object");
  return std::move(static_cast<ajo::AbstractJobObject&>(*action.value()));
}

Status save_job(const std::string& path, const ajo::AbstractJobObject& job) {
  Bytes image = serialize_job(job);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out)
    return util::make_error(ErrorCode::kInternal, "cannot open " + path);
  out.write(reinterpret_cast<const char*>(image.data()),
            static_cast<std::streamsize>(image.size()));
  if (!out)
    return util::make_error(ErrorCode::kInternal, "write failed: " + path);
  return Status::ok_status();
}

Result<ajo::AbstractJobObject> load_job(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in)
    return util::make_error(ErrorCode::kNotFound, "cannot open " + path);
  Bytes image((std::istreambuf_iterator<char>(in)),
              std::istreambuf_iterator<char>());
  return deserialize_job(image);
}

}  // namespace unicore::client
