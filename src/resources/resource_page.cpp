#include "resources/resource_page.h"

namespace unicore::resources {

using asn1::Value;
using util::ErrorCode;
using util::Result;
using util::Status;

const char* architecture_name(Architecture a) {
  switch (a) {
    case Architecture::kCrayT3E: return "Cray T3E";
    case Architecture::kFujitsuVpp700: return "Fujitsu VPP/700";
    case Architecture::kIbmSp2: return "IBM SP-2";
    case Architecture::kNecSx4: return "NEC SX-4";
    case Architecture::kGenericUnix: return "Generic UNIX";
  }
  return "?";
}

const char* software_kind_name(SoftwareKind k) {
  switch (k) {
    case SoftwareKind::kCompiler: return "compiler";
    case SoftwareKind::kLibrary: return "library";
    case SoftwareKind::kPackage: return "package";
  }
  return "?";
}

Status ResourcePage::admits(const ResourceSet& request) const {
  struct Dimension {
    const char* name;
    std::int64_t value, lo, hi;
  };
  const Dimension dims[] = {
      {"processors", request.processors, minimum.processors,
       maximum.processors},
      {"wallclock_seconds", request.wallclock_seconds,
       minimum.wallclock_seconds, maximum.wallclock_seconds},
      {"memory_mb", request.memory_mb, minimum.memory_mb, maximum.memory_mb},
      {"permanent_disk_mb", request.permanent_disk_mb,
       minimum.permanent_disk_mb, maximum.permanent_disk_mb},
      {"temporary_disk_mb", request.temporary_disk_mb,
       minimum.temporary_disk_mb, maximum.temporary_disk_mb},
  };
  for (const auto& d : dims) {
    if (d.value < d.lo || d.value > d.hi)
      return util::make_error(
          ErrorCode::kResourceExhausted,
          std::string("resource request rejected by ") + vsite + ": " +
              d.name + "=" + std::to_string(d.value) + " outside [" +
              std::to_string(d.lo) + ", " + std::to_string(d.hi) + "]");
  }
  return Status::ok_status();
}

bool ResourcePage::has_software(SoftwareKind kind,
                                std::string_view name) const {
  return find_software(kind, name) != nullptr;
}

const SoftwareItem* ResourcePage::find_software(SoftwareKind kind,
                                                std::string_view name) const {
  for (const auto& item : software)
    if (item.kind == kind && item.name == name) return &item;
  return nullptr;
}

Value ResourcePage::to_asn1() const {
  asn1::ValueList software_values;
  software_values.reserve(software.size());
  for (const auto& item : software) {
    software_values.push_back(
        Value::sequence({Value::integer(static_cast<std::int64_t>(item.kind)),
                         Value::utf8(item.name), Value::utf8(item.version)}));
  }
  // peak_gflops is carried as milli-GFLOPS so the page stays within the
  // DER INTEGER type.
  return Value::sequence(
      {Value::utf8(usite), Value::utf8(vsite),
       Value::integer(static_cast<std::int64_t>(architecture)),
       Value::utf8(operating_system),
       Value::integer(static_cast<std::int64_t>(peak_gflops * 1000.0)),
       Value::integer(node_count), minimum.to_asn1(), maximum.to_asn1(),
       Value::sequence(std::move(software_values))});
}

Result<ResourcePage> ResourcePage::from_asn1(const Value& v) {
  const auto malformed = [](const char* what) {
    return util::make_error(ErrorCode::kInvalidArgument,
                            std::string("resources: malformed ") + what);
  };
  if (!v.is_sequence() || v.as_sequence().size() != 9)
    return malformed("resource page");
  const auto& f = v.as_sequence();
  if (!f[0].is_utf8() || !f[1].is_utf8() || !f[2].is_integer() ||
      !f[3].is_utf8() || !f[4].is_integer() || !f[5].is_integer() ||
      !f[8].is_sequence())
    return malformed("resource page");
  ResourcePage page;
  page.usite = f[0].as_utf8();
  page.vsite = f[1].as_utf8();
  page.architecture = static_cast<Architecture>(f[2].as_integer());
  page.operating_system = f[3].as_utf8();
  page.peak_gflops = static_cast<double>(f[4].as_integer()) / 1000.0;
  page.node_count = f[5].as_integer();
  auto minimum = ResourceSet::from_asn1(f[6]);
  if (!minimum) return minimum.error();
  page.minimum = minimum.value();
  auto maximum = ResourceSet::from_asn1(f[7]);
  if (!maximum) return maximum.error();
  page.maximum = maximum.value();
  for (const Value& item : f[8].as_sequence()) {
    if (!item.is_sequence() || item.as_sequence().size() != 3)
      return malformed("software item");
    const auto& s = item.as_sequence();
    if (!s[0].is_integer() || !s[1].is_utf8() || !s[2].is_utf8())
      return malformed("software item");
    SoftwareItem software_item;
    software_item.kind = static_cast<SoftwareKind>(s[0].as_integer());
    software_item.name = s[1].as_utf8();
    software_item.version = s[2].as_utf8();
    page.software.push_back(std::move(software_item));
  }
  return page;
}

util::Bytes ResourcePage::encode() const { return asn1::encode(to_asn1()); }

Result<ResourcePage> ResourcePage::decode(util::ByteView der) {
  auto v = asn1::decode(der);
  if (!v) return v.error();
  return from_asn1(v.value());
}

// ---- ResourcePageEditor -----------------------------------------------

ResourcePageEditor& ResourcePageEditor::usite(std::string name) {
  page_.usite = std::move(name);
  return *this;
}
ResourcePageEditor& ResourcePageEditor::vsite(std::string name) {
  page_.vsite = std::move(name);
  return *this;
}
ResourcePageEditor& ResourcePageEditor::architecture(Architecture a) {
  page_.architecture = a;
  return *this;
}
ResourcePageEditor& ResourcePageEditor::operating_system(std::string name) {
  page_.operating_system = std::move(name);
  return *this;
}
ResourcePageEditor& ResourcePageEditor::peak_gflops(double gflops) {
  page_.peak_gflops = gflops;
  return *this;
}
ResourcePageEditor& ResourcePageEditor::node_count(std::int64_t n) {
  page_.node_count = n;
  return *this;
}
ResourcePageEditor& ResourcePageEditor::minimum(ResourceSet r) {
  page_.minimum = r;
  return *this;
}
ResourcePageEditor& ResourcePageEditor::maximum(ResourceSet r) {
  page_.maximum = r;
  return *this;
}
ResourcePageEditor& ResourcePageEditor::add_software(SoftwareKind kind,
                                                     std::string name,
                                                     std::string version) {
  page_.software.push_back({kind, std::move(name), std::move(version)});
  return *this;
}

Result<ResourcePage> ResourcePageEditor::build() const {
  if (page_.usite.empty() || page_.vsite.empty())
    return util::make_error(ErrorCode::kInvalidArgument,
                            "resource page needs usite and vsite names");
  if (page_.node_count < 1)
    return util::make_error(ErrorCode::kInvalidArgument,
                            "resource page needs node_count >= 1");
  const ResourceSet& lo = page_.minimum;
  const ResourceSet& hi = page_.maximum;
  if (lo.processors > hi.processors ||
      lo.wallclock_seconds > hi.wallclock_seconds ||
      lo.memory_mb > hi.memory_mb ||
      lo.permanent_disk_mb > hi.permanent_disk_mb ||
      lo.temporary_disk_mb > hi.temporary_disk_mb)
    return util::make_error(ErrorCode::kInvalidArgument,
                            "resource page minimum exceeds maximum");
  return page_;
}

}  // namespace unicore::resources
