#include "teuchos/parameter_list.hpp"

#include <charconv>
#include <cstdio>
#include <sstream>

#include "util/string_util.hpp"

namespace pyhpc::teuchos {

namespace {

std::string xml_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

std::string xml_unescape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '&') {
      out.push_back(s[i]);
      continue;
    }
    const auto semi = s.find(';', i);
    require(semi != std::string::npos, "ParameterList XML: bad entity");
    const std::string ent = s.substr(i, semi - i + 1);
    if (ent == "&amp;") out.push_back('&');
    else if (ent == "&lt;") out.push_back('<');
    else if (ent == "&gt;") out.push_back('>');
    else if (ent == "&quot;") out.push_back('"');
    else throw InvalidArgument("ParameterList XML: unknown entity " + ent);
    i = semi;
  }
  return out;
}

// Round-trippable double formatting.
std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double parse_double(const std::string& s) {
  std::size_t pos = 0;
  const double v = std::stod(s, &pos);
  require(pos == s.size(), "ParameterList XML: bad double '", s, "'");
  return v;
}

std::int64_t parse_int(const std::string& s) {
  std::int64_t v = 0;
  const auto* begin = s.data();
  const auto* end = s.data() + s.size();
  const auto res = std::from_chars(begin, end, v);
  require(res.ec == std::errc{} && res.ptr == end,
          "ParameterList XML: bad int '", s, "'");
  return v;
}

struct ValueWriter {
  std::string* out;
  void operator()(bool v) const {
    *out += "type=\"bool\" value=\"" + std::string(v ? "true" : "false") + "\"";
  }
  void operator()(std::int64_t v) const {
    *out += "type=\"int\" value=\"" + std::to_string(v) + "\"";
  }
  void operator()(double v) const {
    *out += "type=\"double\" value=\"" + format_double(v) + "\"";
  }
  void operator()(const std::string& v) const {
    *out += "type=\"string\" value=\"" + xml_escape(v) + "\"";
  }
  void operator()(const std::vector<std::int64_t>& v) const {
    std::vector<std::string> parts;
    parts.reserve(v.size());
    for (auto x : v) parts.push_back(std::to_string(x));
    *out += "type=\"int_array\" value=\"" + util::join(parts, ",") + "\"";
  }
  void operator()(const std::vector<double>& v) const {
    std::vector<std::string> parts;
    parts.reserve(v.size());
    for (auto x : v) parts.push_back(format_double(x));
    *out += "type=\"double_array\" value=\"" + util::join(parts, ",") + "\"";
  }
  void operator()(const std::shared_ptr<ParameterList>&) const {
    // Sublists are handled structurally, never through this writer.
  }
};

// Minimal XML tag scanner for the subset ParameterList emits.
struct Tag {
  std::string element;                       // "ParameterList" or "Parameter"
  std::map<std::string, std::string> attrs;  // unescaped values
  bool self_closing = false;
  bool closing = false;  // </ParameterList>
};

class TagScanner {
 public:
  explicit TagScanner(const std::string& text) : text_(text) {}

  bool next(Tag& tag) {
    pos_ = text_.find('<', pos_);
    if (pos_ == std::string::npos) return false;
    const auto end = text_.find('>', pos_);
    require(end != std::string::npos, "ParameterList XML: unterminated tag");
    std::string body = text_.substr(pos_ + 1, end - pos_ - 1);
    pos_ = end + 1;
    tag = Tag{};
    if (!body.empty() && body.front() == '/') {
      tag.closing = true;
      tag.element = util::strip(body.substr(1));
      return true;
    }
    if (!body.empty() && body.back() == '/') {
      tag.self_closing = true;
      body.pop_back();
    }
    // element name
    std::size_t i = 0;
    while (i < body.size() && !std::isspace(static_cast<unsigned char>(body[i]))) ++i;
    tag.element = body.substr(0, i);
    // attributes: name="value"
    while (i < body.size()) {
      while (i < body.size() && std::isspace(static_cast<unsigned char>(body[i]))) ++i;
      if (i >= body.size()) break;
      const auto eq = body.find('=', i);
      require(eq != std::string::npos, "ParameterList XML: bad attribute");
      const std::string key = util::strip(body.substr(i, eq - i));
      const auto q1 = body.find('"', eq);
      require(q1 != std::string::npos, "ParameterList XML: missing quote");
      const auto q2 = body.find('"', q1 + 1);
      require(q2 != std::string::npos, "ParameterList XML: missing quote");
      tag.attrs[key] = xml_unescape(body.substr(q1 + 1, q2 - q1 - 1));
      i = q2 + 1;
    }
    return true;
  }

 private:
  const std::string& text_;
  std::size_t pos_ = 0;
};

ParameterValue parse_value(const std::string& type, const std::string& value) {
  if (type == "bool") {
    require(value == "true" || value == "false",
            "ParameterList XML: bad bool '", value, "'");
    return value == "true";
  }
  if (type == "int") return parse_int(value);
  if (type == "double") return parse_double(value);
  if (type == "string") return value;
  if (type == "int_array") {
    std::vector<std::int64_t> out;
    if (!value.empty()) {
      for (const auto& p : util::split(value, ',')) out.push_back(parse_int(p));
    }
    return out;
  }
  if (type == "double_array") {
    std::vector<double> out;
    if (!value.empty()) {
      for (const auto& p : util::split(value, ',')) out.push_back(parse_double(p));
    }
    return out;
  }
  throw InvalidArgument("ParameterList XML: unknown type '" + type + "'");
}

}  // namespace

ParameterList& ParameterList::sublist(const std::string& key) {
  auto it = params_.find(key);
  if (it == params_.end()) {
    auto child = std::make_shared<ParameterList>(key);
    auto& slot = params_[key];
    slot = child;
    return *child;
  }
  auto* child = std::get_if<std::shared_ptr<ParameterList>>(&it->second);
  require(child != nullptr,
          "ParameterList: '", key, "' exists and is not a sublist");
  return **child;
}

const ParameterList& ParameterList::sublist(const std::string& key) const {
  auto it = params_.find(key);
  require(it != params_.end(), "ParameterList: no sublist '", key, "'");
  const auto* child = std::get_if<std::shared_ptr<ParameterList>>(&it->second);
  require(child != nullptr, "ParameterList: '", key, "' is not a sublist");
  return **child;
}

bool ParameterList::is_sublist(const std::string& key) const {
  auto it = params_.find(key);
  return it != params_.end() &&
         std::holds_alternative<std::shared_ptr<ParameterList>>(it->second);
}

std::vector<std::string> ParameterList::names() const {
  std::vector<std::string> out;
  out.reserve(params_.size());
  for (const auto& [k, v] : params_) out.push_back(k);
  return out;
}

void ParameterList::to_xml_impl(std::string& out, int indent) const {
  const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
  out += pad + "<ParameterList name=\"" + xml_escape(name_) + "\">\n";
  for (const auto& [key, value] : params_) {
    if (const auto* sub = std::get_if<std::shared_ptr<ParameterList>>(&value)) {
      (*sub)->to_xml_impl(out, indent + 1);
    } else {
      out += pad + "  <Parameter name=\"" + xml_escape(key) + "\" ";
      std::visit(ValueWriter{&out}, value);
      out += "/>\n";
    }
  }
  out += pad + "</ParameterList>\n";
}

std::string ParameterList::to_xml() const {
  std::string out;
  to_xml_impl(out, 0);
  return out;
}

ParameterList ParameterList::from_xml(const std::string& xml) {
  TagScanner scanner(xml);
  Tag tag;
  require(scanner.next(tag) && tag.element == "ParameterList" && !tag.closing,
          "ParameterList XML: expected root <ParameterList>");
  std::vector<ParameterList*> stack;
  ParameterList root(tag.attrs.count("name") ? tag.attrs["name"] : "ANONYMOUS");
  stack.push_back(&root);
  while (scanner.next(tag)) {
    if (tag.closing) {
      require(tag.element == "ParameterList",
              "ParameterList XML: unexpected closing tag");
      stack.pop_back();
      if (stack.empty()) return root;
      continue;
    }
    require(!stack.empty(), "ParameterList XML: content after root close");
    if (tag.element == "ParameterList") {
      require(!tag.self_closing || tag.attrs.count("name"),
              "ParameterList XML: sublist needs a name");
      ParameterList& sub = stack.back()->sublist(tag.attrs["name"]);
      if (!tag.self_closing) stack.push_back(&sub);
    } else if (tag.element == "Parameter") {
      require(tag.self_closing, "ParameterList XML: <Parameter> must self-close");
      require(tag.attrs.count("name") && tag.attrs.count("type") &&
                  tag.attrs.count("value"),
              "ParameterList XML: <Parameter> needs name/type/value");
      stack.back()->params_[tag.attrs["name"]] =
          parse_value(tag.attrs["type"], tag.attrs["value"]);
    } else {
      throw InvalidArgument("ParameterList XML: unknown element <" +
                            tag.element + ">");
    }
  }
  throw InvalidArgument("ParameterList XML: missing closing tag");
}

bool ParameterList::operator==(const ParameterList& other) const {
  if (params_.size() != other.params_.size()) return false;
  for (const auto& [key, value] : params_) {
    auto it = other.params_.find(key);
    if (it == other.params_.end()) return false;
    const auto* a = std::get_if<std::shared_ptr<ParameterList>>(&value);
    const auto* b = std::get_if<std::shared_ptr<ParameterList>>(&it->second);
    if ((a == nullptr) != (b == nullptr)) return false;
    if (a != nullptr) {
      if (!(**a == **b)) return false;
    } else if (!(value == it->second)) {
      return false;
    }
  }
  return true;
}

}  // namespace pyhpc::teuchos
