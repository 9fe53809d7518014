// The hex-double JSON wire format of shard files and robust-frontier
// tables (DESIGN.md §2.10): one writer, one depth-capped reader.
//
// Every double crosses as the 16-hex-digit IEEE-754 bit pattern of its
// value, so decode(encode(x)) is bitwise x — NaN payloads, signed zeros
// and ±inf included — and no float printing or parsing exists to disagree
// across libcs. Integers are unsigned decimal literals; the reader refuses
// decimal float literals outright, so a lossy literal cannot be smuggled
// in.
//
// A wire struct declares its JSON keys once, in wire order, as a field
// list:
//
//   template <class V, wire::Is<Foo> T>
//   void fields(V& v, T& foo) {
//     v("count", foo.count);
//     v("mean", foo.mean);
//   }
//
// Writer walks the list of a const object and emits
// {"count":3,"mean":"3fe0000000000000"}; Reader walks the list of a
// mutable object and calls at(key) for each entry, so the two can never
// disagree on a key or its order. Both find field lists by
// argument-dependent lookup through their own type, so the lists are
// declared in this namespace.
#pragma once

#include <concepts>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

namespace linkpad::core {

/// The 16-hex-digit bit pattern of `x` ("3fe0000000000000"). Total order on
/// the bits, not the value: NaN payloads, signed zeros and ±inf all survive.
[[nodiscard]] std::string encode_double(double x);

/// Inverse of encode_double. Throws std::invalid_argument on malformed hex.
[[nodiscard]] double decode_double(const std::string& hex);

namespace wire {

/// `T` is `U`, const or not: one field list binds both the writer's const
/// objects and the reader's mutable ones.
template <class T, class U>
concept Is = std::same_as<std::remove_const_t<T>, U>;

/// Appends `s` as a JSON string (escaping quote, backslash, \n, \t, \r).
void append_string(std::string& out, std::string_view s);

/// Appends `x` as a quoted encode_double bit pattern.
void append_hex(std::string& out, double x);

/// One parsed JSON value. Numbers are unsigned integers with a sign flag;
/// a double is a string holding its bit pattern.
struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  bool negative = false;
  std::uint64_t magnitude = 0;
  std::string text;
  std::vector<Value> items;
  std::vector<std::pair<std::string, Value>> members;

  [[nodiscard]] bool is_null() const { return kind == Kind::kNull; }
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] std::uint64_t as_u64() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] double as_hex_double() const;
  [[nodiscard]] const std::vector<Value>& as_array() const;
  /// The member named `key` of an object; throws when it is missing.
  [[nodiscard]] const Value& at(std::string_view key) const;
};

/// Parses one JSON value spanning all of `text`. Throws
/// std::invalid_argument on malformed input, trailing characters, a
/// decimal float literal, or nesting deeper than 64 arrays/objects (so a
/// file of nested brackets fails by name instead of overflowing the
/// stack).
[[nodiscard]] Value parse(std::string_view text);

namespace detail {

template <class T, template <class...> class Template>
inline constexpr bool kIsA = false;
template <template <class...> class Template, class... Args>
inline constexpr bool kIsA<Template<Args...>, Template> = true;

}  // namespace detail

/// Writes one JSON object: the constructor opens it, each call appends a
/// field, close() ends it.
class Writer {
 public:
  explicit Writer(std::string& out) : out_(&out) { out_->push_back('{'); }

  template <class T>
  void operator()(std::string_view key, const T& x) {
    if (!first_) out_->push_back(',');
    first_ = false;
    out_->push_back('"');
    out_->append(key);
    out_->append("\":");
    value(x);
  }

  /// An enum field (or a list of them) with its largest valid value; the
  /// bound is for the reader.
  template <class T, class E>
  void operator()(std::string_view key, const T& x, E /*max*/) {
    (*this)(key, x);
  }

  void close() { out_->push_back('}'); }

 private:
  template <class T>
  void value(const T& x) {
    if constexpr (std::is_same_v<T, bool>) {
      out_->append(x ? "true" : "false");
    } else if constexpr (std::is_enum_v<T>) {
      value(static_cast<std::uint64_t>(x));
    } else if constexpr (std::is_unsigned_v<T>) {
      out_->append(std::to_string(x));
    } else if constexpr (std::is_same_v<T, double>) {
      append_hex(*out_, x);
    } else if constexpr (std::is_same_v<T, std::string>) {
      append_string(*out_, x);
    } else if constexpr (detail::kIsA<T, std::optional>) {
      if (x.has_value()) {
        value(*x);
      } else {
        out_->append("null");
      }
    } else if constexpr (detail::kIsA<T, std::vector>) {
      out_->push_back('[');
      for (std::size_t i = 0; i < x.size(); ++i) {
        if (i != 0) out_->push_back(',');
        value(x[i]);
      }
      out_->push_back(']');
    } else if constexpr (detail::kIsA<T, std::tuple>) {
      out_->push_back('[');
      std::apply(
          [this](const auto&... xs) {
            const char* separator = "";
            ((out_->append(separator), value(xs), separator = ","), ...);
          },
          x);
      out_->push_back(']');
    } else {
      Writer nested(*out_);
      fields(nested, x);
      nested.close();
    }
  }

  std::string* out_;
  bool first_ = true;
};

template <class T>
void read(const Value& v, T& x);

/// Reads one JSON object: each call decodes the member named `key`.
class Reader {
 public:
  explicit Reader(const Value& object) : object_(&object) {}

  template <class T>
  void operator()(std::string_view key, T&& x) const {
    read(object_->at(key), x);
  }

  /// An enum field (or a list of them): values above `max` are refused
  /// before they are cast.
  template <class T, class E>
  void operator()(std::string_view key, T& x, E max) const {
    read_enum(object_->at(key), x, max);
  }

 private:
  template <class E>
  static void read_enum(const Value& v, E& x, E max) {
    const std::uint64_t raw = v.as_u64();
    if (raw > static_cast<std::uint64_t>(max)) {
      throw std::invalid_argument("wire: enum value " + std::to_string(raw) +
                                  " is out of range");
    }
    x = static_cast<E>(raw);
  }

  template <class E>
  static void read_enum(const Value& v, std::vector<E>& xs, E max) {
    xs.clear();
    for (const Value& item : v.as_array()) {
      read_enum(item, xs.emplace_back(), max);
    }
  }

  const Value* object_;
};

/// Decodes `v` into `x`, the inverse of what Writer emits for `x`.
template <class T>
void read(const Value& v, T& x) {
  if constexpr (std::is_same_v<T, bool>) {
    x = v.as_bool();
  } else if constexpr (std::is_unsigned_v<T>) {
    static_assert(sizeof(T) == sizeof(std::uint64_t),
                  "narrower integers would need a range check");
    x = v.as_u64();
  } else if constexpr (std::is_same_v<T, double>) {
    x = v.as_hex_double();
  } else if constexpr (std::is_same_v<T, std::string>) {
    x = v.as_string();
  } else if constexpr (detail::kIsA<T, std::optional>) {
    if (v.is_null()) {
      x.reset();
    } else {
      read(v, x.emplace());
    }
  } else if constexpr (detail::kIsA<T, std::vector>) {
    x.clear();
    for (const Value& item : v.as_array()) read(item, x.emplace_back());
  } else if constexpr (detail::kIsA<T, std::tuple>) {
    const std::vector<Value>& items = v.as_array();
    if (items.size() != std::tuple_size_v<T>) {
      throw std::invalid_argument("wire: expected an array of " +
                                  std::to_string(std::tuple_size_v<T>) +
                                  " items");
    }
    std::apply(
        [&items](auto&... xs) {
          std::size_t i = 0;
          (read(items[i++], xs), ...);
        },
        x);
  } else {
    Reader nested(v);
    fields(nested, x);
  }
}

}  // namespace wire
}  // namespace linkpad::core
