#include "check/repro.hpp"

#include <fstream>
#include <sstream>

#include "check/history.hpp"

namespace mams::check {

namespace {

using workload::OpKind;

bool ParseOpKind(const std::string& name, OpKind* out) {
  for (const OpKind k :
       {OpKind::kCreate, OpKind::kMkdir, OpKind::kDelete, OpKind::kRename,
        OpKind::kGetFileInfo, OpKind::kListDir, OpKind::kAddBlock}) {
    if (name == OpKindName(k)) {
      *out = k;
      return true;
    }
  }
  return false;
}

Status Malformed(std::size_t line_no, const std::string& what) {
  return Status::InvalidArgument("repro line " + std::to_string(line_no) +
                                 ": " + what);
}

}  // namespace

std::string SerializeSpec(const RunSpec& spec) {
  std::ostringstream out;
  out << "mams-repro v1\n";
  out << "seed=" << spec.seed << "\n";
  out << "clients=" << spec.clients << "\n";
  out << "groups=" << spec.groups << "\n";
  out << "standbys=" << spec.standbys << "\n";
  out << "mutation=" << MutationName(spec.mutation) << "\n";
  out << "standby_reads=" << (spec.standby_reads ? 1 : 0) << "\n";
  out << "warmup_us=" << spec.warmup << "\n";
  out << "run_us=" << spec.run_for << "\n";
  out << "quiesce_us=" << spec.quiesce << "\n";
  // Optional keys are written only when non-default so files from older
  // builds (which reject unknown keys) stay byte-identical.
  if (spec.client_cache) {
    out << "client_cache=1\n";
  }
  for (const OpEntry& e : spec.ops) {
    out << "op " << e.client << " " << e.think << " " << OpKindName(e.op.kind)
        << " " << e.op.path;
    if (e.op.kind == OpKind::kRename) out << " " << e.op.path2;
    out << "\n";
  }
  for (const FaultAction& f : spec.faults) {
    out << "fault " << FaultKindName(f.kind) << " " << f.at << " " << f.target
        << " " << f.duration << " " << f.param << "\n";
  }
  return out.str();
}

Result<RunSpec> ParseSpec(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;
  if (!std::getline(in, line) || line != "mams-repro v1") {
    return Status::InvalidArgument("not a mams-repro v1 file");
  }
  RunSpec spec;
  spec.ops.clear();
  spec.faults.clear();
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string head;
    fields >> head;
    if (head == "op") {
      OpEntry e;
      std::string kind;
      if (!(fields >> e.client >> e.think >> kind >> e.op.path)) {
        return Malformed(line_no, "bad op line");
      }
      if (!ParseOpKind(kind, &e.op.kind)) {
        return Malformed(line_no, "unknown op kind '" + kind + "'");
      }
      if (e.op.kind == OpKind::kRename && !(fields >> e.op.path2)) {
        return Malformed(line_no, "rename needs a destination");
      }
      spec.ops.push_back(std::move(e));
    } else if (head == "fault") {
      FaultAction f;
      std::string kind;
      if (!(fields >> kind >> f.at >> f.target >> f.duration >> f.param)) {
        return Malformed(line_no, "bad fault line");
      }
      if (!ParseFaultKind(kind, &f.kind)) {
        return Malformed(line_no, "unknown fault kind '" + kind + "'");
      }
      spec.faults.push_back(f);
    } else {
      const std::size_t eq = head.find('=');
      if (eq == std::string::npos) {
        return Malformed(line_no, "unknown directive '" + head + "'");
      }
      const std::string key = head.substr(0, eq);
      const std::string value = head.substr(eq + 1);
      try {
        if (key == "seed") {
          spec.seed = std::stoull(value);
        } else if (key == "clients") {
          spec.clients = std::stoi(value);
        } else if (key == "groups") {
          spec.groups = std::stoi(value);
        } else if (key == "standbys") {
          spec.standbys = std::stoi(value);
        } else if (key == "mutation") {
          if (!ParseMutation(value, &spec.mutation)) {
            return Malformed(line_no, "unknown mutation '" + value + "'");
          }
        } else if (key == "standby_reads") {
          spec.standby_reads = std::stoi(value) != 0;
        } else if (key == "client_cache") {
          spec.client_cache = std::stoi(value) != 0;
        } else if (key == "warmup_us") {
          spec.warmup = std::stoll(value);
        } else if (key == "run_us") {
          spec.run_for = std::stoll(value);
        } else if (key == "quiesce_us") {
          spec.quiesce = std::stoll(value);
        } else {
          return Malformed(line_no, "unknown key '" + key + "'");
        }
      } catch (const std::exception&) {
        return Malformed(line_no, "bad value for '" + key + "'");
      }
    }
  }
  if (spec.clients < 1) return Status::InvalidArgument("clients < 1");
  if (spec.groups < 1) return Status::InvalidArgument("groups < 1");
  for (const OpEntry& e : spec.ops) {
    if (e.client < 0 || e.client >= spec.clients) {
      return Status::InvalidArgument("op client out of range");
    }
  }
  return spec;
}

Status WriteSpecFile(const RunSpec& spec, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::Internal("cannot open " + path + " for writing");
  out << SerializeSpec(spec);
  out.flush();
  return out ? Status::Ok() : Status::Internal("short write to " + path);
}

Result<RunSpec> ReadSpecFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return ParseSpec(buf.str());
}

}  // namespace mams::check
